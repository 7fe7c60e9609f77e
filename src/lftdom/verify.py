"""Seeded verification suites over every module's invariants.

Each suite draws from its own generator seeded by (seed, suite index), runs a
fixed number of randomized checks against a tracker, and returns how many
trials it ran. suite_row times one suite and turns its tracker into a report
row: the worst residual seen, whether every check held, and the identity
checked. No suite reads another's draws or results, so run_verify computes
the rows in worker processes forked from the caller, one per usable CPU up to
one per suite, on Linux, and in the caller's process elsewhere; the report is
the same either way. A row's elapsed time is its suite's own time in its
worker, so the rows can sum to more than the wall time. The command line
front end renders the rows; callers that want programmatic access use
run_verify directly.
"""

import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .exceptions import LftdomError, PathLeavesDomainError, StepBoundError
from .linalg import DEFAULT_TOL, Tolerance, operator_norm, singular_test, try_invert
from .spaces import full_space
from .domains import (
    Domain,
    Verdict,
    connectivity_class,
    det_membership,
    hyperplane_complement_domain,
    invertibles_domain,
    lft_apply,
    projection_domain,
    quadric_domain,
    rank_one_pairing_domain,
    whole_space_domain,
)
from .automorphisms import (
    affine_equivalence,
    affine_transport,
    affine_transport_identity_residual,
    ball_margin,
    compose_symmetries_affine,
    find_midpoint,
    fixed_point_derivative,
    form_margin,
    liouville_curve,
    potapov_ginzburg_map,
    signature_from_projection,
    swap_involution,
    symmetry_direct,
    symmetry_map,
    transitive_chain,
)
from .circular import (
    HyperbolicSpec,
    SiegelSpec,
    cayley_map,
    exterior_linear_auto_check,
    hyperbolic_member,
    hyperbolic_transitive,
    isometry_inverse_identity_check,
    mobius_direct,
    mobius_map,
    product_member,
    product_split,
    product_transitive,
    siegel_invariant_residual,
    siegel_linear_auto,
    siegel_member,
)
from . import sampling as samp


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite: seed, work volume, shapes, tolerance."""

    seed: int = 0
    trials: int = 50
    dim_k: int = 2
    dim_h: int = 2
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError("seed must be a nonnegative integer")
        if not (isinstance(self.trials, (int, np.integer)) and 1 <= self.trials <= 10**6):
            raise ValueError("trials must be a positive integer at most 10^6")
        for name, value in (("dim_k", self.dim_k), ("dim_h", self.dim_h)):
            if not (isinstance(value, (int, np.integer)) and 1 <= value <= 8):
                raise ValueError(f"{name} must be a positive integer at most 8")


class _Tracker:
    """Collects residuals against their own bounds; a failed requirement counts as 1."""

    def __init__(self):
        self.worst = 0.0
        self.ok = True
        self.count = 0

    def add(self, residual, limit):
        residual = float(residual)
        # a NaN residual fails its check and stays the worst
        if math.isnan(residual) or residual > self.worst:
            self.worst = residual
        if not residual <= limit:
            self.ok = False
        self.count += 1

    def require(self, condition):
        self.add(0.0 if condition else 1.0, 0.0)


def example_domains(config):
    """The six reference domains, shaped by the configured dimensions."""
    k, h, tol = config.dim_k, config.dim_h, config.tol
    n = max(2, h)
    items = [whole_space_domain(full_space(k, h), tol)]
    items.append(invertibles_domain(full_space(n, n), tol))
    e = np.zeros((n, n), dtype=complex)
    e[0, 0] = 1.0
    e[0, 1] = 0.5
    items.append(projection_domain(full_space(n, n), e, tol))
    m = max(2, k)
    pattern = np.array([1.0, 1.0j, -1.0, -1.0j, 1.0, 1.0j, -1.0, -1.0j][:m], dtype=complex)
    c_vec = (pattern / np.linalg.norm(pattern)).reshape(m, 1)
    items.append(hyperplane_complement_domain(c_vec, 0.7, tol))
    x = np.zeros((n, 1), dtype=complex)
    x[0, 0] = 1.0
    y = np.zeros((n, 1), dtype=complex)
    y[0, 0] = 1.0 / np.sqrt(2.0)
    y[1, 0] = 1.0j / np.sqrt(2.0)
    items.append(rank_one_pairing_domain(full_space(n, n), x, y, 0.6, tol))
    items.append(quadric_domain(min(k + h, 4), tol).domain)
    return items


def _member_pair(rng, dom):
    return samp.sample_members(rng, dom, 2, margin=0.05)


def suite_symmetry(config, rng, track):
    """Involution, fixed point, coefficient involution, and derivative checks."""
    domains = example_domains(config)
    trials = 4 * config.trials
    for i in range(trials):
        dom = domains[i % len(domains)]
        y, z = _member_pair(rng, dom)
        u = symmetry_map(dom, y)
        double = lft_apply(u, lft_apply(u, z, dom.tol), dom.tol)
        track.add(operator_norm(double - z), 1e-8 * (1.0 + operator_norm(z)))
        track.add(operator_norm(lft_apply(u, y, dom.tol) - y), 1e-10)
        m = u.coefficient_matrix()
        track.add(operator_norm(m @ m - np.eye(m.shape[0])), 1e-10)
        direction = samp.random_space_member(rng, dom.space, scale=0.1)
        deriv = fixed_point_derivative(dom, y, direction)
        track.add(operator_norm(deriv + direction), 1e-6)
    return trials


def suite_symmetry_routes(config, rng, track):
    """The coefficient-block route against the direct resolvent formula."""
    domains = example_domains(config)
    trials = 2 * config.trials
    for i in range(trials):
        dom = domains[i % len(domains)]
        y, z = _member_pair(rng, dom)
        via_blocks = lft_apply(symmetry_map(dom, y), z, dom.tol)
        direct = symmetry_direct(dom, y, z)
        track.add(operator_norm(via_blocks - direct), 1e-9 * (1.0 + operator_norm(z)))
    return trials


def suite_midpoint(config, rng, track):
    """A midpoint symmetry swaps its two endpoints."""
    domains = example_domains(config)
    trials = 2 * config.trials
    for i in range(trials):
        dom = domains[i % len(domains)]
        z, w = _member_pair(rng, dom)
        pull = operator_norm(dom.kernel_at(z) @ (w - z))
        if pull >= 0.95:
            w = z + (w - z) * (0.8 / pull)
            if dom.membership(w) is not Verdict.MEMBER:
                continue
        y = find_midpoint(dom, z, w)
        track.add(
            operator_norm(symmetry_direct(dom, y, z) - w),
            1e-8 * (1.0 + operator_norm(w)),
        )
    return trials


def suite_chain(config, rng, track):
    """Transitive chains: composite reaches the target through domain points."""
    domains = example_domains(config)
    built = 0
    for dom in domains:
        for _ in range(config.trials):
            chain = None
            for _ in range(30):
                target = samp.random_domain_member(rng, dom, margin=0.05)
                try:
                    chain = transitive_chain(dom, target)
                    break
                except (PathLeavesDomainError, StepBoundError):
                    continue
            if chain is None:
                track.require(False)
                continue
            built += 1
            track.add(chain.residual, 1e-8)
            track.require(chain.factor_count % 2 == 0)
            track.require(all(s <= 0.9 + 1e-12 for s in chain.step_norms))
            probes = samp.sample_members(rng, dom, 20, margin=0.05)
            # a probe singular at some factor is skipped
            pointwise, singular = chain.apply(probes)
            live = ~singular
            for residual in operator_norm(chain.affine(probes[live]) - pointwise[live]):
                track.add(residual, 1e-9)
    return built


def suite_affine_pairs(config, rng, track):
    """A pair of symmetries folds into one affine map."""
    domains = example_domains(config)
    trials = 2 * config.trials
    for i in range(trials):
        dom = domains[i % len(domains)]
        y, w = _member_pair(rng, dom)
        z, _ = _member_pair(rng, dom)
        aff = compose_symmetries_affine(dom, w, y)
        try:
            pointwise = symmetry_direct(dom, w, symmetry_direct(dom, y, z))
        except LftdomError:
            continue
        track.add(operator_norm(aff(z) - pointwise), 1e-9 * (1.0 + operator_norm(pointwise)))
    return trials


def suite_transport(config, rng, track):
    """Square-root transport maps the base point and satisfies its identity."""
    domains = example_domains(config)
    trials = 2 * config.trials
    for i in range(trials):
        dom = domains[i % len(domains)]
        w0 = samp.random_target_in_reach(rng, dom)
        phi = affine_transport(dom, w0)
        track.add(operator_norm(phi(dom.z0) - w0), 1e-10 * (1.0 + operator_norm(w0)))
        z, _ = _member_pair(rng, dom)
        track.add(affine_transport_identity_residual(dom, phi, z), 1e-9)
        track.require(dom.membership(phi(z)) is Verdict.MEMBER)
    return trials


def suite_swap(config, rng, track):
    """The exchanging involution: self-inverse, swaps base and target."""
    domains = example_domains(config)
    trials = 2 * config.trials
    for i in range(trials):
        dom = domains[i % len(domains)]
        w0 = samp.random_target_in_reach(rng, dom)
        v = swap_involution(dom, w0)
        track.add(operator_norm(v(dom.z0) - w0), 1e-9 * (1.0 + operator_norm(w0)))
        z, _ = _member_pair(rng, dom)
        try:
            track.add(operator_norm(v(v(z)) - z), 1e-9 * (1.0 + operator_norm(z)))
        except LftdomError:
            pass
        v0 = swap_involution(dom, dom.z0)
        track.add(
            operator_norm(v0(z) - symmetry_direct(dom, dom.z0, z)),
            1e-9 * (1.0 + operator_norm(z)),
        )
        track.add(operator_norm(lft_apply(v.as_lft(), z, dom.tol) - v(z)), 1e-8)
    return trials


def suite_equivalence(config, rng, track):
    """Affine equivalence of domains with proportional denominators."""
    tol = config.tol
    n = max(2, config.dim_h)
    space = full_space(n, n)
    trials = 2 * config.trials
    eye = np.eye(n, dtype=complex)
    for _ in range(trials):
        c1 = samp.random_matrix(rng, n, n)
        z1 = samp.random_matrix(rng, n, n)
        d1 = eye - c1 @ z1
        dom1 = Domain(space, c1, d1, z1, tol)
        r, _ = samp.random_invertible_member(rng, space, tol)
        z2 = samp.random_matrix(rng, n, n)
        c2 = c1 @ r
        d2 = eye - c2 @ z2
        dom2 = Domain(space, c2, d2, z2, tol)
        eq = affine_equivalence(dom1, dom2, r, z1, z2)
        track.add(operator_norm(eq(z1) - z2), 1e-10 * (1.0 + operator_norm(z2)))
        z = samp.random_domain_member(rng, dom1, margin=0.05)
        track.add(eq.certificate_residual(z), 1e-9 * (1.0 + operator_norm(z)))
        track.require(dom2.membership(eq(z)) is Verdict.MEMBER)
    return trials


def suite_potapov_ginzburg(config, rng, track):
    """Projection-built involutions carry the signed contractions to the ball."""
    tol = config.tol
    per_e = 2 * config.trials
    cases = [
        np.zeros((2, 2), dtype=complex),
        np.diag([1.0, 0.0]).astype(complex),
        np.eye(2, dtype=complex),
    ]
    for e in cases:
        u = potapov_ginzburg_map(e, tol)
        m = u.coefficient_matrix()
        track.add(operator_norm(m @ m - np.eye(4)), 1e-12)
        j = signature_from_projection(e)
        for _ in range(per_e):
            z = samp.random_pg_member(rng, e, tol)
            image = lft_apply(u, z, tol)
            track.require(ball_margin(image) > 0.0)
            track.require(form_margin(z, j) > 0.0)
            track.add(
                operator_norm(lft_apply(u, image, tol) - z),
                1e-9 * (1.0 + operator_norm(z)),
            )
    return 3 * per_e


def _lambda_grid():
    radii = 0.2 * np.arange(1, 11)
    angles = 2.0 * np.pi * np.arange(10) / 10.0
    return (radii[:, None] * np.exp(1j * angles)).ravel()


def suite_liouville(config, rng, track):
    """The entire curve through Z: endpoints, invertibility, series identity."""
    domains = example_domains(config)
    targets = max(1, config.trials // 10)
    grid = _lambda_grid()
    m = len(grid)
    # one series evaluation per curve: the grid, its negation, then 0 and 1
    lams = np.concatenate([grid, -grid, [0.0, 1.0]])
    count = 0
    for i, dom in enumerate(domains):
        for _ in range(targets):
            z = samp.random_target_in_reach(rng, dom)
            curve = liouville_curve(dom, z)
            count += 1
            values, factors = curve.evaluate(lams)
            track.add(operator_norm(values[-2] - dom.z0), 1e-8)
            track.add(operator_norm(values[-1] - z), 1e-8)
            for verdict in dom.membership(values[:m]):
                track.require(verdict is Verdict.MEMBER)
            identity = curve.identity_residuals(values[:m], factors[:m])
            prod = factors[:m] @ factors[m : 2 * m]
            pairing = operator_norm(prod - np.eye(prod.shape[-1]))
            for residual in identity:
                track.add(residual, 1e-8)
            for residual in pairing:
                track.add(residual, 1e-9)
    return count * m


def suite_determinant(config, rng, track):
    """Determinant witness against the singular-value verdict, banded."""
    tol = config.tol
    n = max(2, config.dim_h)
    space = full_space(n, n)
    per_domain = 10 * config.trials
    band = 10.0 * tol.inv_tol
    outside_disagreements = 0
    checked = 0
    for _ in range(3):
        c, c_inv = samp.random_invertible_member(rng, space, tol)
        dom = Domain(space, c, np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex), tol)
        for sample in range(per_domain):
            if sample % 5 == 4:
                raw = samp.random_matrix(rng, n, n)
                uu, ss, vv = np.linalg.svd(raw)
                ss[-1] = 0.0
                sing = (uu * ss) @ vv
                t = 10.0 ** rng.uniform(-12.0, -7.0)
                den = sing + t * np.outer(uu[:, -1], vv[-1, :])
                z = c_inv @ (den - np.eye(n))
            else:
                z = samp.random_matrix(rng, n, n) * rng.uniform(0.1, 2.0)
            f = det_membership(dom, z)
            smin, singular = singular_test(dom.denominator(z), tol)
            if smin <= band or abs(f) <= band:
                continue
            checked += 1
            det_says = abs(f) > tol.inv_tol
            if det_says == singular:  # the two verdicts disagree
                outside_disagreements += 1
    track.add(outside_disagreements, 0.0)
    return checked


def suite_connectivity(config, rng, track):
    """Connectivity certificates on knowable cases."""
    del rng
    tol = config.tol
    n = max(2, config.dim_h)
    space = full_space(n, n)
    eye = np.eye(n, dtype=complex)

    rep = connectivity_class(Domain(space, eye, eye, np.zeros((n, n)), tol))
    track.require(
        rep.compact_coefficients
        and rep.polynomial_identity
        and rep.full_space_closed_range
        and rep.range_inclusion
    )
    rep = connectivity_class(whole_space_domain(space, tol))
    track.require(
        rep.compact_coefficients
        and rep.polynomial_identity
        and rep.full_space_closed_range
        and not rep.range_inclusion
    )
    rep = connectivity_class(quadric_domain(min(config.dim_k + config.dim_h, 4), tol).domain)
    track.require(
        rep.compact_coefficients and rep.polynomial_identity and not rep.full_space_closed_range
    )
    track.require(rep.connected)
    return track.count


def _random_j_unitary(rng, j, scale=0.4):
    import scipy.linalg  # loaded on first use, as in linalg.principal_sqrt

    n = j.shape[0]
    a = samp.random_matrix(rng, n, n)
    k = a - j @ a.conj().T @ j
    k = k * (scale / (1.0 + operator_norm(k)))
    return scipy.linalg.expm(k)


def suite_siegel(config, rng, track):
    """Validated linear maps preserve the stacked domain; Cayley involutes."""
    spec = SiegelSpec(config.dim_k, config.dim_h, config.tol)
    trials = 2 * config.trials
    for _ in range(trials):
        l = _random_j_unitary(rng, spec.j)
        u = samp.random_unitary(rng, spec.dim_h)
        auto = siegel_linear_auto(spec, l, u)
        z = samp.random_siegel_member(rng, spec)
        track.require(siegel_member(spec, auto(z)))
        track.add(
            operator_norm(auto.inverse(auto(z)) - z), 1e-9 * (1.0 + operator_norm(z))
        )
        track.add(siegel_invariant_residual(spec, auto, 1.5), 1e-8)
        tz = cayley_map(spec, z)
        track.add(operator_norm(cayley_map(spec, tz) - z), 1e-10 * (1.0 + operator_norm(z)))
        track.require(operator_norm(tz) < 1.0)
    return trials


def suite_exterior(config, rng, track):
    """Isometry inverse identity and exterior preservation."""
    tol = config.tol
    n = max(2, config.dim_h)
    space = full_space(n, n)
    p = samp.random_unitary(rng, n)
    q = samp.random_unitary(rng, n)
    sandwich = [p @ b @ q for b in space.basis]
    transpose = [b.T.copy() for b in space.basis]
    trials = 0
    for images in (sandwich, transpose):
        rep = isometry_inverse_identity_check(space, images, rng, trials=config.trials, tol=tol)
        trials += rep.trials
        track.add(rep.max_identity_residual, 1e-10)
        track.add(rep.unitary_defect, 1e-9)
        auto = exterior_linear_auto_check(space, images, rng, trials=config.trials, tol=tol)
        track.require(auto.preserved == auto.trials)
        track.require(auto.min_image_margin > 0.0)
    return trials


def suite_mobius(config, rng, track):
    """Ball automorphisms: preservation, special values, inversion, J-form."""
    tol = config.tol
    k, h = config.dim_k, config.dim_h
    j = SiegelSpec(k, h).j
    trials = 2 * config.trials
    for _ in range(trials):
        b = samp.random_ball_point(rng, k, h, max_norm=0.85)
        t_b = mobius_map(b, tol)
        z = samp.random_ball_point(rng, k, h, max_norm=0.95)
        image = lft_apply(t_b, z, tol)
        track.require(operator_norm(image) < 1.0)
        track.add(operator_norm(lft_apply(t_b, -b, tol)), 1e-12)
        track.add(operator_norm(lft_apply(t_b, np.zeros((k, h)), tol) - b), 1e-10)
        back = lft_apply(mobius_map(-b, tol), image, tol)
        track.add(operator_norm(back - z), 1e-8)
        m = t_b.coefficient_matrix()
        track.add(operator_norm(m.conj().T @ j @ m - j), 1e-10)
        track.add(operator_norm(mobius_direct(b, z, tol) - image), 1e-10)
    return trials


def suite_product(config, rng, track):
    """Transitive linear maps of the product-type stacked domain."""
    spec = SiegelSpec(config.dim_k, config.dim_h, config.tol)
    axis = spec.stack(
        np.zeros((spec.dim_k, spec.dim_h), dtype=complex),
        np.eye(spec.dim_h, dtype=complex),
    )
    trials = 2 * config.trials
    for _ in range(trials):
        w = samp.random_product_member(rng, spec)
        transport = product_transitive(spec, w)
        track.add(operator_norm(transport(axis) - w), 1e-10 * (1.0 + operator_norm(w)))
        track.add(operator_norm(transport.m.conj().T @ spec.j @ transport.m - spec.j), 1e-10)
        z = samp.random_product_member(rng, spec)
        image = transport(z)
        track.require(product_member(spec, image))
        track.add(operator_norm(transport.inverse(image) - z), 1e-9 * (1.0 + operator_norm(z)))
        ball_part, inv_part = product_split(spec, image)
        track.require(operator_norm(ball_part) < 1.0)
        track.require(try_invert(inv_part, spec.tol) is not None)
    return trials


def suite_hyperbolic(config, rng, track):
    """Transitive maps of the vector domain (Jz, z) < 0, both branches."""
    n = max(3, min(config.dim_k + config.dim_h, 6))
    trials = 4 * config.trials
    degenerate_seen = 0
    for i in range(trials):
        want_degenerate = i % 10 == 0
        spec = HyperbolicSpec(samp.random_hyperbolic_form(rng, n, want_degenerate), tol=config.tol)
        z1 = samp.random_hyperbolic_member(rng, spec, degenerate=want_degenerate)
        transport = hyperbolic_transitive(spec, z1)
        if transport.degenerate:
            degenerate_seen += 1
        scale = 1.0 + np.linalg.norm(z1)
        track.add(transport.endpoint_residual(), 1e-9 * scale)
        track.add(
            transport.certificate_residual(),
            1e-9 * (1.0 + operator_norm(transport.matrix)) ** 2,
        )
        track.require(transport.c > 0.0)
        z = samp.random_hyperbolic_member(rng, spec)
        track.require(hyperbolic_member(spec, transport(z)))
    track.require(degenerate_seen >= trials // 10)
    return trials


def suite_quadric(config, rng, track):
    """Closed-form quadric symmetry against the matrix-algebra route."""
    tol = config.tol
    model = quadric_domain(min(config.dim_k + config.dim_h, 4), tol)
    trials = 2 * config.trials
    n = model.n
    for _ in range(trials):
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        y = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        if abs(model.quadric_form(z)) < 1e-3 or abs(model.quadric_form(y)) < 1e-3:
            continue
        big_z = model.embed(z)
        track.add(float(np.linalg.norm(model.unembed(big_z) - z)), 1e-12)
        square = big_z @ big_z - model.quadric_form(z) * np.eye(model.matrix_dim)
        track.add(operator_norm(square), 1e-12 * (1.0 + np.linalg.norm(z)) ** 2)
        closed = model.closed_form_symmetry(y, z)
        via_matrix = model.unembed(
            symmetry_direct(model.domain, model.embed(y), big_z)
        )
        track.add(float(np.linalg.norm(closed - via_matrix)), 1e-9 * (1.0 + np.linalg.norm(z)))
    return trials


# (report name, suite, anchor) in report order; an aborted suite keeps its name
SUITES = (
    ("symmetry-involution", suite_symmetry,
     "U_Y(U_Y(Z)) = Z; U_Y(Y) = Y; M^2 = I; dU_Y|_Y = -I"),
    ("symmetry-dual-route", suite_symmetry_routes,
     "U_Y(Z) = Y - (Z-Y)(CZ+D)^{-1}(CY+D)"),
    ("midpoint-swap", suite_midpoint,
     "U_Y(Z) = W for Y = Z + (W-Z)(I+Q)^{-1}, Q^2 = I + X(W-Z)"),
    ("chain-transitivity", suite_chain,
     "composite of symmetry pairs maps Z0 to W0; factor count even"),
    ("affine-pair-fold", suite_affine_pairs,
     "U_W(U_Y(Z)) = U_W(Y) + [I+(W-Y)X_Y](Z-Y)[I+X_Y(W-Y)]"),
    ("affine-transport", suite_transport,
     "I + X0(phi(Z)-Z0) = R^{1/2}(I + X0(Z-Z0))R^{1/2}"),
    ("swap-involution", suite_swap,
     "V(V(Z)) = Z; V(Z0) = W0; V at W0 = Z0 equals U_{Z0}"),
    ("affine-equivalence", suite_equivalence,
     "C2 phi(Z)+D2 = (C1 Z+D1)(C1 Z1+D1)^{-1}(C2 Z2+D2)"),
    ("potapov-ginzburg", suite_potapov_ginzburg,
     "M_E^2 = I; U_E maps {Z*JZ < J} into the unit ball"),
    ("liouville-curve", suite_liouville,
     "f(0) = Z0; f(1) = Z; (CZ0+D)^{-1}(Cf+D) = b_lambda(W); b b^- = I"),
    ("determinant-membership", suite_determinant,
     "|det(I + D^{-1}CZ)| > tol iff CZ+D invertible, outside the band"),
    ("connectivity-class", suite_connectivity,
     "compactness and polynomial identity always hold in finite dimensions"),
    ("siegel-stacked", suite_siegel,
     "h(Z) = LZU preserves I + Z1*Z1 < Z2*Z2; T(T(Z)) = Z"),
    ("exterior-isometry", suite_exterior,
     "L(Z^{-1}) = L(I) L(Z)^{-1} L(I) for linear isometries"),
    ("mobius-ball", suite_mobius,
     "T_B maps the ball to itself; T_B(-B) = 0; T_{-B} inverts T_B; M*JM = J"),
    ("product-transport", suite_product,
     "L(Z) = M Z R maps [0; I] to W and preserves Z1*Z1 < Z2*Z2"),
    ("hyperbolic-transport", suite_hyperbolic,
     "L f = z1 with L*JL = c J, c > 0; degenerate branch via a shear"),
    ("quadric-closed-form", suite_quadric,
     "U_y(z) = (2(z,y)y - (y,y)z)/(z,z) matches the matrix route"),
)


def _aborted_row(name, exc, where=""):
    return {
        "name": name,
        "anchor": f"suite aborted: {type(exc).__name__}: {exc}{where}",
        "trials": 0,
        # JSON has no infinity; an aborted suite reports null
        "max_residual": None,
        "passed": False,
        "elapsed": 0.0,
    }


def suite_row(config, index):
    """Run suite `index` of SUITES with its own (seed, index) generator; return its row."""
    name, suite, anchor = SUITES[index]
    rng = np.random.default_rng([config.seed, index])
    track = _Tracker()
    start = time.perf_counter()
    try:
        trials = suite(config, rng, track)
    except Exception as exc:  # any failure aborts only its own row
        # the innermost frame inside this package says where it failed
        here = os.path.dirname(__file__)
        frames = traceback.extract_tb(exc.__traceback__)
        frame = [f for f in frames if os.path.dirname(f.filename) == here][-1]
        return _aborted_row(
            name, exc,
            f" (in {frame.name}, {os.path.basename(frame.filename)}:{frame.lineno})",
        )
    return {
        "name": name,
        "anchor": anchor,
        "trials": trials,
        # JSON has no NaN or infinity; a non-finite worst residual reports null
        "max_residual": track.worst if math.isfinite(track.worst) else None,
        "passed": track.ok,
        "elapsed": time.perf_counter() - start,
    }


def _pooled_rows(config, workers):
    """suite_row for every index, computed in `workers` processes forked from this one.

    Fork keeps the loaded modules and this process's SUITES table. A job that
    fails here rather than inside its suite, such as one whose worker died,
    gives an aborted row. A dead worker fails every job still pending in its
    pool, so each of those runs again in a pool of its own, and only a job
    that fails again keeps the aborted row.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    import multiprocessing

    fork = multiprocessing.get_context("fork")

    def rows_in_pool(size, indices):
        pool = ProcessPoolExecutor(size, mp_context=fork)
        try:
            try:
                futures = {index: pool.submit(suite_row, config, index) for index in indices}
            except BrokenProcessPool as exc:  # a worker died before every job was in
                return dict.fromkeys(indices, exc)
            rows = {}
            for index, future in futures.items():
                try:
                    rows[index] = future.result()
                except Exception as exc:  # the job failed, not its suite
                    rows[index] = exc
            return rows
        finally:
            pool.shutdown(cancel_futures=True)

    rows = rows_in_pool(workers, range(len(SUITES)))
    for index, row in rows.items():
        if isinstance(row, BrokenProcessPool):
            rows[index] = rows_in_pool(1, [index])[index]
    return [
        _aborted_row(SUITES[index][0], row) if isinstance(row, Exception) else row
        for index, row in rows.items()
    ]


def run_verify(config):
    """Run every suite of SUITES and return the report, its rows in SUITES order.

    On Linux the rows are computed in worker processes forked from this one,
    one per usable CPU up to one per suite; when that makes one worker, or on
    another platform, they are computed in this process. Each row is
    suite_row(config, index) either way, so the report is the same apart from
    the elapsed times, and every worker has ended when run_verify returns.
    """
    workers = 1
    if sys.platform == "linux":
        workers = min(len(os.sched_getaffinity(0)), len(SUITES))
    if workers > 1:
        rows = _pooled_rows(config, workers)
    else:
        rows = [suite_row(config, index) for index in range(len(SUITES))]
    return {
        "config": {
            "seed": int(config.seed),
            "trials": int(config.trials),
            "dim_k": int(config.dim_k),
            "dim_h": int(config.dim_h),
            "eq_tol": float(config.tol.eq_tol),
            "inv_tol": float(config.tol.inv_tol),
        },
        "suites": rows,
        "passed": all(row["passed"] for row in rows),
    }
