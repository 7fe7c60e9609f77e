"""Seeded verification suites over every module's invariants.

Each suite draws from its own generator seeded by (seed, suite index), runs a
fixed number of randomized checks against a tracker, and returns how many
trials it ran. Twelve suites judge their trials in stacks. A suite over the
example domains takes the domains in turn and gives each the share of the
trials that dealing them out one by one would; it draws a domain's trials at
most CHECK_BATCH at a time and judges each such stack at once. A trial's
draws stay together in the stream, so only an aborted row's error can depend
on CHECK_BATCH. The other stacked suites split their trials the same way;
six suites judge one trial at a time. suite_row times one suite and turns its
tracker into a report row: the worst residual seen, whether every check held,
and the identity checked. No suite reads another's draws or results, so
run_verify computes the rows in worker processes forked from the caller, one
per usable CPU up to one per suite, on Linux, and in the caller's process
elsewhere; the report is the same either way. A row's elapsed time is its
suite's own time in its worker, so the rows can sum to more than the wall
time. The command line front end renders the rows; callers that want
programmatic access use run_verify directly.

The exterior domain's sampled checks live here too, so that no library
module but sampling takes a generator; isometry_identity_residuals also
serves the exterior demo.
"""

import functools
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    HypothesisError, InternalCheckError, PathLeavesDomainError, ShapeError, SpaceClosureError,
    StepBoundError,
)
from .linalg import DEFAULT_TOL, Tolerance, dagger, invert, operator_norm, singular_test, try_invert
from .spaces import full_space
from .domains import (
    Domain,
    Verdict,
    connectivity_class,
    det_membership,
    hyperplane_complement_domain,
    invertibles_domain,
    lft_images,
    projection_domain,
    quadric_domain,
    rank_one_pairing_domain,
    whole_space_domain,
)
from .automorphisms import (
    CHAIN_MARGIN,
    _central_difference,
    affine_equivalence,
    affine_transport,
    affine_transport_identity_residual,
    apply_chains,
    ball_margin,
    build_chains,
    compose_symmetries_affine,
    find_midpoint,
    form_margin,
    liouville_curve,
    potapov_ginzburg_map,
    signature_from_projection,
    swap_involution,
    symmetry_direct,
    symmetry_map,
    walk_chain,
)
from .circular import (
    HyperbolicSpec,
    SiegelSpec,
    SpaceLinearMap,
    cayley_map,
    exterior_member,
    hyperbolic_member,
    hyperbolic_transitive,
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

# most trials a suite draws before it judges them as stacks, so that what a
# suite holds stays bounded at any trial count
CHECK_BATCH = 256


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

    def add_each(self, residuals, limits):
        """``add`` for each residual of a stack, against its own limit or one limit for all."""
        for residual, limit in zip(residuals, np.broadcast_to(limits, np.shape(residuals))):
            self.add(residual, limit)

    def require(self, condition):
        self.add(0.0 if condition else 1.0, 0.0)

    def require_each(self, conditions):
        """``require`` for each condition of a stack."""
        for condition in conditions:
            self.require(condition)


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


def _shares(domains, trials):
    """(domain, count) for each domain in turn: its share of ``trials`` dealt out one by one."""
    n = len(domains)
    return [(dom, trials // n + (i < trials % n)) for i, dom in enumerate(domains)]


def _stacks(count):
    """The indices of ``count`` trials in turn, split into stacks of at most CHECK_BATCH."""
    return [range(start, min(start + CHECK_BATCH, count)) for start in range(0, count, CHECK_BATCH)]


def _columns(draws):
    """One stack per item of the trials' draws, in trial order."""
    return (np.stack(column) for column in zip(*draws))


def _targets_and_members(rng, dom, stack):
    """(w0, z) stacks of a stack's trials, each a target in reach and then a member."""
    return _columns(
        (samp.random_target_in_reach(rng, dom), samp.sample_members(rng, dom, 1, margin=0.05)[0])
        for _ in stack
    )


def suite_symmetry(config, rng, track):
    """Involution, fixed point, coefficient involution, and derivative checks."""
    trials = 4 * config.trials
    for dom, share in _shares(example_domains(config), trials):
        for stack in _stacks(share):
            # each trial draws a member pair, then a direction
            y, z, direction = _columns(
                (*samp.sample_members(rng, dom, 2, margin=0.05),
                 samp.random_space_member(rng, dom.space, scale=0.1))
                for _ in stack
            )
            u = symmetry_map(dom, y)
            image = functools.partial(lft_images, u)
            double = image(image(z))
            track.add_each(operator_norm(double - z), 1e-8 * (1.0 + operator_norm(z)))
            track.add_each(operator_norm(image(y) - y), 1e-10)
            m = u.coefficient_matrix()
            track.add_each(operator_norm(m @ m - np.eye(m.shape[-1])), 1e-10)
            deriv = _central_difference(image, y, direction)
            track.add_each(operator_norm(deriv + direction), 1e-6)
    return trials


def suite_symmetry_routes(config, rng, track):
    """The coefficient-block route against the direct resolvent formula."""
    trials = 2 * config.trials
    for dom, share in _shares(example_domains(config), trials):
        for stack in _stacks(share):
            # trial i takes members 2i and 2i + 1
            members = samp.sample_members(rng, dom, 2 * len(stack), margin=0.05)
            y, z = members[0::2], members[1::2]
            via_blocks = lft_images(symmetry_map(dom, y), z)
            # c z + d is invertible at every drawn member z, so no item is flagged
            direct, _ = symmetry_direct(dom, y, z)
            track.add_each(operator_norm(via_blocks - direct), 1e-9 * (1.0 + operator_norm(z)))
    return trials


def suite_midpoint(config, rng, track):
    """A midpoint symmetry swaps its two endpoints."""
    trials = 2 * config.trials
    for dom, share in _shares(example_domains(config), trials):
        for stack in _stacks(share):
            members = samp.sample_members(rng, dom, 2 * len(stack), margin=0.05)
            z, w = members[0::2], members[1::2]
            pull = operator_norm(dom.kernel_at(z) @ (w - z))
            # an end point beyond the step bound's reach is pulled in, and a
            # trial whose pulled-in end point is not a member is skipped
            far = pull >= 0.95
            w[far] = z[far] + (w[far] - z[far]) * (0.8 / pull[far])[:, None, None]
            kept = ~far | (dom.membership(w) == Verdict.MEMBER)
            z, w = z[kept], w[kept]
            y = find_midpoint(dom, z, w)
            # the drawn z are members, so no item is flagged
            direct, _ = symmetry_direct(dom, y, z)
            track.add_each(operator_norm(direct - w), 1e-8 * (1.0 + operator_norm(w)))
    return trials


def suite_chain(config, rng, track):
    """Transitive chains: composite reaches the target through domain points.

    Each target is walked as it is drawn, since a failed walk draws another,
    and a walked target's probes are drawn next; the chains are built and
    checked in stacks.
    """
    built = 0
    for dom in example_domains(config):
        for stack in _stacks(config.trials):
            walks, probes = [], []
            for _ in stack:
                walk = None
                for _ in range(30):
                    target = samp.random_domain_member(rng, dom, margin=0.05)
                    try:
                        walk = walk_chain(dom, target)
                        break
                    except (PathLeavesDomainError, StepBoundError):
                        continue
                if walk is None:
                    track.require(False)
                    continue
                walks.append(walk)
                probes.append(samp.sample_members(rng, dom, 20, margin=0.05))
            if not walks:
                continue
            built += len(walks)
            chains = build_chains(dom, walks)
            for chain in chains:
                track.add(chain.residual, 1e-8)
                track.require(chain.factor_count % 2 == 0)
                track.require(all(s <= CHAIN_MARGIN + 1e-12 for s in chain.step_norms))
            # a probe singular at some factor is skipped
            pointwise, singular = apply_chains(chains, np.stack(probes))
            gaps = [
                chain.affine(p[~dead]) - images[~dead]
                for chain, p, images, dead in zip(chains, probes, pointwise, singular)
            ]
            track.add_each(operator_norm(np.concatenate(gaps)), 1e-9)
    return built


def suite_affine_pairs(config, rng, track):
    """A pair of symmetries folds into one affine map."""
    trials = 2 * config.trials
    for dom, share in _shares(example_domains(config), trials):
        for stack in _stacks(share):
            members = samp.sample_members(rng, dom, 3 * len(stack), margin=0.05)
            y, w, z = members[0::3], members[1::3], members[2::3]
            aff = compose_symmetries_affine(dom, w, y)
            # the drawn z are members; a trial whose U_Y(Z) is not is skipped
            inner, _ = symmetry_direct(dom, y, z)
            pointwise, skipped = symmetry_direct(dom, w, inner)
            kept = ~skipped
            pointwise = pointwise[kept]
            track.add_each(
                operator_norm(aff(z)[kept] - pointwise), 1e-9 * (1.0 + operator_norm(pointwise))
            )
    return trials


def suite_transport(config, rng, track):
    """Square-root transport maps the base point and satisfies its identity."""
    trials = 2 * config.trials
    for dom, share in _shares(example_domains(config), trials):
        for stack in _stacks(share):
            w0, z = _targets_and_members(rng, dom, stack)
            phi = affine_transport(dom, w0)
            track.add_each(operator_norm(phi(dom.z0) - w0), 1e-10 * (1.0 + operator_norm(w0)))
            track.add_each(affine_transport_identity_residual(dom, phi, z), 1e-9)
            track.require_each(dom.membership(phi(z)) == Verdict.MEMBER)
    return trials


def suite_swap(config, rng, track):
    """The exchanging involution: self-inverse, swaps base and target."""
    trials = 2 * config.trials
    for dom, share in _shares(example_domains(config), trials):
        for stack in _stacks(share):
            w0, z = _targets_and_members(rng, dom, stack)
            v = swap_involution(dom, w0)
            # c z + d is invertible at z0 and at every drawn member z, so no
            # item of their images is flagged
            at_base, _ = v(dom.z0)
            track.add_each(operator_norm(at_base - w0), 1e-9 * (1.0 + operator_norm(w0)))
            image, _ = v(z)
            # a trial whose image V(Z) is not a member skips V(V(Z)) = Z
            back, skipped = v(image)
            kept = ~skipped
            track.add_each(
                operator_norm(back[kept] - z[kept]), 1e-9 * (1.0 + operator_norm(z[kept]))
            )
            at_z, _ = swap_involution(dom, dom.z0)(z)
            direct, _ = symmetry_direct(dom, dom.z0, z)
            track.add_each(operator_norm(at_z - direct), 1e-9 * (1.0 + operator_norm(z)))
            track.add_each(operator_norm(lft_images(v.as_lft(), z) - image), 1e-8)
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
        members = samp.sample_pg_members(rng, e, per_e, tol)
        for stack in _stacks(per_e):
            z = members[stack.start : stack.stop]
            image = lft_images(u, z)
            track.require_each(ball_margin(image) > 0.0)
            track.require_each(form_margin(z, j) > 0.0)
            track.add_each(operator_norm(lft_images(u, image) - z), 1e-9 * (1.0 + operator_norm(z)))
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
        for stack in _stacks(per_domain):
            z = np.empty((len(stack), n, n), dtype=complex)
            for item, sample in enumerate(stack):
                if sample % 5 == 4:
                    raw = samp.random_matrix(rng, n, n)
                    uu, ss, vv = np.linalg.svd(raw)
                    ss[-1] = 0.0
                    sing = (uu * ss) @ vv
                    t = 10.0 ** rng.uniform(-12.0, -7.0)
                    den = sing + t * np.outer(uu[:, -1], vv[-1, :])
                    z[item] = c_inv @ (den - np.eye(n))
                else:
                    z[item] = samp.random_matrix(rng, n, n) * rng.uniform(0.1, 2.0)
            size = np.abs(det_membership(dom, z))
            smin, singular = singular_test(dom.denominator(z), tol)
            judged = ~((smin <= band) | (size <= band))
            checked += int(judged.sum())
            det_says = size > tol.inv_tol
            # the two verdicts disagree
            outside_disagreements += int((judged & (det_says == singular)).sum())
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


def _random_j_unitary(rng, j):
    import scipy.linalg  # loaded on first use, as in linalg.principal_sqrt

    n = j.shape[0]
    a = samp.random_matrix(rng, n, n)
    k = a - j @ a.conj().T @ j
    k = k * (0.4 / (1.0 + operator_norm(k)))
    return scipy.linalg.expm(k)


def suite_siegel(config, rng, track):
    """Validated linear maps preserve the stacked domain; Cayley involutes."""
    spec = SiegelSpec(config.dim_k, config.dim_h, config.tol)
    trials = 2 * config.trials
    for stack in _stacks(trials):
        l, u, z = _columns(
            (_random_j_unitary(rng, spec.j), samp.random_unitary(rng, spec.dim_h),
             samp.random_siegel_member(rng, spec))
            for _ in stack
        )
        auto = siegel_linear_auto(spec, l, u)
        image = auto(z)
        track.require_each(siegel_member(spec, image))
        track.add_each(operator_norm(auto.inverse(image) - z), 1e-9 * (1.0 + operator_norm(z)))
        track.add_each(siegel_invariant_residual(spec, auto, 1.5), 1e-8)
        tz = cayley_map(spec, z)
        track.add_each(operator_norm(cayley_map(spec, tz) - z), 1e-10 * (1.0 + operator_norm(z)))
        track.require_each(operator_norm(tz) < 1.0)
    return trials


def isometry_identity_residuals(space, images, rng, trials, tol):
    """(||U*U - I||, residuals) for the linear map L with basis images ``images``, U = L(I).

    residuals is the stack of ||L(Z^-1) - U L(Z)^-1 U|| at ``trials`` sampled
    invertible members Z: the inverse identity of a linear isometry. The
    isometry is pre-checked first on ``trials`` sampled norms (a necessary
    condition only), and a changed norm raises HypothesisError. A non-square
    space raises ShapeError, a space without I SpaceClosureError, and a
    singular L(I) or L(Z) SingularMatrixError.
    """
    if not space.is_square:
        raise ShapeError("the inverse identity needs a square space")
    lmap = SpaceLinearMap(space, images, tol)
    eye = np.eye(space.dim_h, dtype=complex)
    if not space.contains(eye, tol):
        raise SpaceClosureError("the space does not contain the identity")
    for _ in range(trials):
        z = samp.random_space_member(rng, space)
        defect = abs(operator_norm(lmap(z)) - operator_norm(z))
        if defect > tol.eq_tol * (1.0 + operator_norm(z)):
            raise HypothesisError(
                f"the map changes a sampled norm by {defect:.3g}; not an isometry"
            )
    u = lmap(eye)
    invert(u, tol, "L(I) is singular")
    gaps = np.empty((trials, *space.shape), dtype=complex)
    for i in range(trials):
        z, z_inv = samp.random_invertible_member(rng, space, tol)
        gaps[i] = lmap(z_inv) - u @ invert(lmap(z), tol, "L(z) is singular") @ u
    return operator_norm(dagger(u) @ u - eye), operator_norm(gaps)


def suite_exterior(config, rng, track):
    """Isometry inverse identity and exterior preservation."""
    tol = config.tol
    n = max(2, config.dim_h)
    space = full_space(n, n)
    p = samp.random_unitary(rng, n)
    q = samp.random_unitary(rng, n)
    sandwich = [p @ b @ q for b in space.basis]
    transpose = [b.T.copy() for b in space.basis]
    for images in (sandwich, transpose):
        defect, residuals = isometry_identity_residuals(space, images, rng, config.trials, tol)
        track.add_each(residuals, 1e-10)
        track.add(defect, 1e-9)
        # each exterior member is a proposal scaled to a drawn smallest
        # singular value in [1.05, 2]; its image must stay exterior
        lmap = SpaceLinearMap(space, images, tol)
        done = attempts = 0
        while done < config.trials and attempts < 50 * config.trials:
            attempts += 1
            z = samp.random_space_member(rng, space)
            smin = float(singular_test(z, tol)[0])
            if smin < 1e-8:
                continue
            z = (rng.uniform(1.05, 2.0) / smin) * z
            if not exterior_member(space, z, tol):
                continue
            done += 1
            image = lmap(z)
            track.require(exterior_member(space, image, tol))
            track.require(float(singular_test(image, tol)[0]) > 1.0)
        if done < config.trials:
            raise InternalCheckError("could not sample enough exterior members")
    return 2 * config.trials


def suite_mobius(config, rng, track):
    """Ball automorphisms: preservation, special values, inversion, J-form."""
    tol = config.tol
    k, h = config.dim_k, config.dim_h
    j = SiegelSpec(k, h).j
    trials = 2 * config.trials
    for stack in _stacks(trials):
        b, z = _columns(
            (samp.random_ball_point(rng, k, h, max_norm=0.85),
             samp.random_ball_point(rng, k, h, max_norm=0.95))
            for _ in stack
        )
        t_b = mobius_map(b, tol)
        image = lft_images(t_b, z)
        track.require_each(operator_norm(image) < 1.0)
        track.add_each(operator_norm(lft_images(t_b, -b)), 1e-12)
        track.add_each(operator_norm(lft_images(t_b, np.zeros_like(b)) - b), 1e-10)
        back = lft_images(mobius_map(-b, tol), image)
        track.add_each(operator_norm(back - z), 1e-8)
        m = t_b.coefficient_matrix()
        track.add_each(operator_norm(dagger(m) @ j @ m - j), 1e-10)
        # the spectral route stays one call per item: it is the oracle of the blocks
        direct = np.array([mobius_direct(bi, zi, tol) for bi, zi in zip(b, z)])
        track.add_each(operator_norm(direct - image), 1e-10)
    return trials


def suite_product(config, rng, track):
    """Transitive linear maps of the product-type stacked domain."""
    spec = SiegelSpec(config.dim_k, config.dim_h, config.tol)
    axis = spec.stack(
        np.zeros((spec.dim_k, spec.dim_h), dtype=complex),
        np.eye(spec.dim_h, dtype=complex),
    )
    trials = 2 * config.trials
    for stack in _stacks(trials):
        w, z = _columns(
            (samp.random_product_member(rng, spec), samp.random_product_member(rng, spec))
            for _ in stack
        )
        transport = product_transitive(spec, w)
        track.add_each(operator_norm(transport(axis) - w), 1e-10 * (1.0 + operator_norm(w)))
        m = transport.m
        track.add_each(operator_norm(dagger(m) @ spec.j @ m - spec.j), 1e-10)
        image = transport(z)
        track.require_each(product_member(spec, image))
        track.add_each(operator_norm(transport.inverse(image) - z), 1e-9 * (1.0 + operator_norm(z)))
        ball_part, inv_part = product_split(spec, image)
        track.require_each(operator_norm(ball_part) < 1.0)
        track.require_each(~try_invert(inv_part, spec.tol)[1])
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
        # the innermost frame inside this package says where it failed, by
        # function and file: a line number would tie the report to the layout
        here = os.path.dirname(__file__)
        frames = traceback.extract_tb(exc.__traceback__)
        frame = [f for f in frames if os.path.dirname(f.filename) == here][-1]
        return _aborted_row(name, exc, f" (in {frame.name}, {os.path.basename(frame.filename)})")
    return {
        "name": name,
        "anchor": anchor,
        "trials": trials,
        # JSON has no NaN or infinity; a non-finite worst residual reports null
        "max_residual": track.worst if math.isfinite(track.worst) else None,
        "passed": track.ok,
        "elapsed": time.perf_counter() - start,
    }


def _pin_worker(cpus, started):
    """Pin the calling worker, the i-th of its pool to start, to the i-th of ``cpus``.

    Each worker then has a CPU of its own, and so do the BLAS threads it
    starts, which would otherwise spin on the CPU of another worker. A CPU
    that has left this process's set since leaves the worker unpinned.
    """
    with started.get_lock():
        i = started.value
        started.value += 1
    try:
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    except OSError:
        pass


def _pooled_rows(config, workers):
    """suite_row for every index, computed in `workers` processes forked from this one.

    Fork keeps the loaded modules and this process's SUITES table. Worker i
    runs on the i-th CPU of this process's set (``_pin_worker``). A job that
    fails here rather than inside its suite, such as one whose worker died,
    gives an aborted row. A dead worker fails every job still pending in its
    pool, so each of those runs again in a pool of its own, and only a job
    that fails again keeps the aborted row.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    cpus = sorted(os.sched_getaffinity(0))

    def rows_in_pool(size, indices):
        pool = ProcessPoolExecutor(
            size, mp_context=fork, initializer=_pin_worker, initargs=(cpus, fork.Value("i", 0))
        )
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
