"""Release acceptance gate.

One test per numbered criterion, each at its pinned tolerance. Every test
draws its own seeded generator, so the gate is deterministic end to end.
"""

import json
import time

import numpy as np
import scipy.linalg

from lftdom import sampling as samp
from lftdom.automorphisms import (
    affine_equivalence,
    affine_transport,
    affine_transport_identity_residual,
    ball_margin,
    compose_symmetries_affine,
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
from lftdom.circular import (
    HyperbolicSpec,
    SiegelSpec,
    cayley_map,
    hyperbolic_member,
    hyperbolic_transitive,
    mobius_map,
    product_transitive,
    siegel_linear_auto,
    siegel_member,
)
from lftdom.cli import main
from lftdom.domains import Domain, Verdict, det_membership, lft_apply
from lftdom.exceptions import LftdomError, PathLeavesDomainError, StepBoundError
from lftdom.linalg import DEFAULT_TOL, operator_norm, try_invert
from lftdom.spaces import full_space
from lftdom.verify import RunConfig, example_domains, isometry_identity_residuals

TOL = DEFAULT_TOL


def reference_domains():
    return example_domains(RunConfig())


def random_j_unitary(rng, j, scale=0.4):
    n = j.shape[0]
    a = samp.random_matrix(rng, n, n)
    k = a - j @ a.conj().T @ j
    k = k * (scale / (1.0 + operator_norm(k)))
    return scipy.linalg.expm(k)


def lambda_grid():
    # 100 points, radii up to 2, ten directions each
    radii = 0.2 * np.arange(1, 11)
    angles = 2.0 * np.pi * np.arange(10) / 10.0
    return [r * np.exp(1j * t) for r in radii for t in angles]


def test_criterion_1_symmetry_suite(scaled_member):
    rng = np.random.default_rng(101)
    domains = reference_domains()
    worst_involution = 0.0
    worst_fixed = 0.0
    worst_coeff = 0.0
    worst_derivative = 0.0
    start = time.perf_counter()
    for i in range(200):
        dom = domains[i % len(domains)]
        y = samp.random_domain_member(rng, dom, margin=0.1)
        z = scaled_member(rng, dom, 0.5, 0.05)
        u = symmetry_map(dom, y)
        uz = lft_apply(u, z)
        back = lft_apply(u, uz)
        worst_involution = max(
            worst_involution, operator_norm(back - z) / (1.0 + operator_norm(z))
        )
        worst_fixed = max(worst_fixed, operator_norm(lft_apply(u, y) - y))
        m = u.coefficient_matrix()
        worst_coeff = max(worst_coeff, operator_norm(m @ m - np.eye(m.shape[0])))
        fd = fixed_point_derivative(dom, y, z)
        worst_derivative = max(worst_derivative, operator_norm(fd + z))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 1: involution {worst_involution:.3e}, fixed {worst_fixed:.3e}, "
        f"coefficient {worst_coeff:.3e}, derivative {worst_derivative:.3e}, {elapsed:.2f}s"
    )
    assert worst_involution <= 1e-8
    assert worst_fixed <= 1e-10
    assert worst_coeff <= 1e-10
    assert worst_derivative <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_transitive_chains():
    rng = np.random.default_rng(202)
    domains = reference_domains()
    built = 0
    worst_residual = 0.0
    worst_probe = 0.0
    for dom in domains:
        for _ in range(50):
            chain = None
            based = None
            for _ in range(40):
                z0 = samp.random_domain_member(rng, dom, margin=0.05)
                w0 = samp.random_domain_member(rng, dom, margin=0.05)
                based = Domain(dom.space, dom.c, dom.d, z0, TOL)
                try:
                    chain = transitive_chain(based, w0)
                    break
                except (PathLeavesDomainError, StepBoundError):
                    continue
            assert chain is not None, dom.label
            built += 1
            worst_residual = max(worst_residual, chain.residual)
            assert chain.factor_count % 2 == 0
            assert all(s <= 0.9 + 1e-12 for s in chain.step_norms)
            probes = 0
            for _ in range(100):
                if probes == 20:
                    break
                probe = samp.random_domain_member(rng, based, margin=0.05)
                try:
                    pointwise = chain.apply(probe)
                except LftdomError:
                    continue
                probes += 1
                worst_probe = max(
                    worst_probe, operator_norm(chain.affine(probe) - pointwise)
                )
            assert probes == 20
    print(
        f"criterion 2: {built} chains, residual {worst_residual:.3e}, "
        f"affine-vs-pointwise {worst_probe:.3e}"
    )
    assert built == 300
    assert worst_residual <= 1e-8
    assert worst_probe <= 1e-9


def test_criterion_3_affine_formulas():
    rng = np.random.default_rng(303)
    domains = reference_domains()

    worst_pair = 0.0
    done = 0
    while done < 100:
        dom = domains[done % len(domains)]
        y = samp.random_domain_member(rng, dom, margin=0.05)
        w = samp.random_domain_member(rng, dom, margin=0.05)
        z = samp.random_domain_member(rng, dom, margin=0.05)
        aff = compose_symmetries_affine(dom, w, y)
        try:
            pointwise = symmetry_direct(dom, w, symmetry_direct(dom, y, z))
        except LftdomError:
            continue
        worst_pair = max(worst_pair, operator_norm(aff(z) - pointwise))
        done += 1
    assert worst_pair <= 1e-9

    worst_transport = 0.0
    for i in range(100):
        dom = domains[i % len(domains)]
        w0 = samp.random_target_in_reach(rng, dom)
        phi = affine_transport(dom, w0)
        worst_transport = max(worst_transport, operator_norm(phi(dom.z0) - w0))
        z = samp.random_domain_member(rng, dom, margin=0.05)
        worst_transport = max(
            worst_transport, affine_transport_identity_residual(dom, phi, z)
        )
    assert worst_transport <= 1e-9

    worst_swap = 0.0
    done = 0
    while done < 100:
        dom = domains[done % len(domains)]
        w0 = samp.random_target_in_reach(rng, dom)
        v = swap_involution(dom, w0)
        z = samp.random_domain_member(rng, dom, margin=0.05)
        try:
            twice = v(v(z))
            base_swap = swap_involution(dom, dom.z0)
            base_residual = operator_norm(
                base_swap(z) - symmetry_direct(dom, dom.z0, z)
            )
        except LftdomError:
            continue
        worst_swap = max(worst_swap, operator_norm(twice - z))
        worst_swap = max(worst_swap, operator_norm(v(dom.z0) - w0))
        worst_swap = max(worst_swap, base_residual)
        done += 1
    assert worst_swap <= 1e-9

    worst_equiv = 0.0
    n = 2
    space = full_space(n, n)
    eye = np.eye(n, dtype=complex)
    for _ in range(100):
        c1 = samp.random_matrix(rng, n, n)
        z1 = samp.random_matrix(rng, n, n)
        dom1 = Domain(space, c1, eye - c1 @ z1, z1, TOL)
        r, _ = samp.random_invertible_member(rng, space, TOL)
        z2 = samp.random_matrix(rng, n, n)
        c2 = c1 @ r
        dom2 = Domain(space, c2, eye - c2 @ z2, z2, TOL)
        eq = affine_equivalence(dom1, dom2, r, z1, z2)
        worst_equiv = max(worst_equiv, operator_norm(eq(z1) - z2))
        z = samp.random_domain_member(rng, dom1, margin=0.05)
        worst_equiv = max(worst_equiv, eq.certificate_residual(z))
        assert dom2.membership(eq(z)) is Verdict.MEMBER
    assert worst_equiv <= 1e-9

    print(
        f"criterion 3: pair {worst_pair:.3e}, transport {worst_transport:.3e}, "
        f"swap {worst_swap:.3e}, equivalence {worst_equiv:.3e}"
    )


def test_criterion_4_potapov_ginzburg():
    rng = np.random.default_rng(404)
    cases = [
        np.zeros((2, 2), dtype=complex),
        np.diag([1.0, 0.0]).astype(complex),
        np.eye(2, dtype=complex),
    ]
    worst_involution = 0.0
    min_ball = np.inf
    for e in cases:
        u = potapov_ginzburg_map(e, TOL)
        j = signature_from_projection(e)
        for _ in range(100):
            z = samp.sample_pg_members(rng, e, 1, TOL)[0]
            assert form_margin(z, j) > 0.0
            image = lft_apply(u, z)
            min_ball = min(min_ball, ball_margin(image))
            worst_involution = max(
                worst_involution, operator_norm(lft_apply(u, image) - z)
            )
    print(
        f"criterion 4: smallest image ball margin {min_ball:.3e}, "
        f"involution {worst_involution:.3e}"
    )
    assert min_ball > 0.0
    assert worst_involution <= 1e-9


def test_criterion_5_liouville_curve():
    rng = np.random.default_rng(505)
    domains = reference_domains()
    grid = lambda_grid()
    worst_end = 0.0
    worst_identity = 0.0
    worst_pairing = 0.0
    for dom in domains:
        for _ in range(3):
            z = samp.random_target_in_reach(rng, dom)
            assert operator_norm(dom.x0 @ (z - dom.z0)) < 0.8
            curve = liouville_curve(dom, z)
            worst_end = max(worst_end, operator_norm(curve(0.0) - dom.z0))
            worst_end = max(worst_end, operator_norm(curve(1.0) - z))
            for lam in grid:
                value = curve(lam)
                assert dom.membership(value) is Verdict.MEMBER
                values, factors = curve.evaluate([lam, -lam])
                identity = curve.identity_residuals(values[:1], factors[:1])[0]
                worst_identity = max(worst_identity, identity)
                prod = factors[0] @ factors[1]
                worst_pairing = max(
                    worst_pairing, operator_norm(prod - np.eye(prod.shape[0]))
                )
    print(
        f"criterion 5: endpoints {worst_end:.3e}, identity {worst_identity:.3e}, "
        f"pairing {worst_pairing:.3e}"
    )
    assert worst_end <= 1e-8
    assert worst_identity <= 1e-8
    assert worst_pairing <= 1e-9


def test_criterion_6_determinant_membership():
    rng = np.random.default_rng(606)
    n = 2
    space = full_space(n, n)
    band = 10.0 * TOL.inv_tol
    checked = 0
    disagreements = 0
    for _ in range(3):
        c, _ = samp.random_invertible_member(rng, space, TOL)
        dom = Domain(space, c, np.eye(n, dtype=complex), np.zeros((n, n)), TOL)
        c_inv = np.linalg.inv(c)
        for sample in range(500):
            if sample % 5 == 4:
                # plant a denominator within a hair of singularity
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
            smin = float(np.linalg.svd(dom.denominator(z), compute_uv=False).min())
            if smin <= band or abs(f) <= band:
                continue
            checked += 1
            det_says = abs(f) > TOL.inv_tol
            svd_says = smin > TOL.inv_tol
            if det_says != svd_says:
                disagreements += 1
    print(f"criterion 6: {checked} samples outside the band, {disagreements} disagreements")
    assert checked >= 1000
    assert disagreements == 0


def test_criterion_7_circular_suite():
    rng = np.random.default_rng(707)
    spec = SiegelSpec(2, 2, TOL)

    worst_cayley = 0.0
    preserved = 0
    for _ in range(100):
        z = samp.random_siegel_member(rng, spec)
        t = cayley_map(spec, z)
        assert operator_norm(t) < 1.0
        worst_cayley = max(worst_cayley, operator_norm(cayley_map(spec, t) - z))
        l = random_j_unitary(rng, spec.j)
        u = samp.random_unitary(rng, spec.dim_h)
        auto = siegel_linear_auto(spec, l, u)
        if siegel_member(spec, auto(z)):
            preserved += 1
    assert worst_cayley <= 1e-10
    assert preserved == 100

    space = full_space(2, 2)
    p = samp.random_unitary(rng, 2)
    q = samp.random_unitary(rng, 2)
    worst_isometry = 0.0
    for images in ([p @ b @ q for b in space.basis], [b.T.copy() for b in space.basis]):
        _, residuals = isometry_identity_residuals(space, images, rng, 100, TOL)
        worst_isometry = max(worst_isometry, residuals.max())
    assert worst_isometry <= 1e-10

    worst_center = 0.0
    worst_inverse = 0.0
    for _ in range(100):
        b = samp.random_ball_point(rng, 2, 2, max_norm=0.85)
        t_b = mobius_map(b, TOL)
        z = samp.random_ball_point(rng, 2, 2, max_norm=0.95)
        image = lft_apply(t_b, z)
        assert operator_norm(image) < 1.0
        worst_center = max(worst_center, operator_norm(lft_apply(t_b, -b)))
        back = lft_apply(mobius_map(-b, TOL), image)
        worst_inverse = max(worst_inverse, operator_norm(back - z))
    assert worst_center <= 1e-12
    assert worst_inverse <= 1e-8

    axis = spec.stack(np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex))
    worst_endpoint = 0.0
    worst_form = 0.0
    for _ in range(100):
        w = samp.random_product_member(rng, spec)
        transport = product_transitive(spec, w)
        worst_endpoint = max(worst_endpoint, operator_norm(transport(axis) - w))
        worst_form = max(
            worst_form,
            operator_norm(transport.m.conj().T @ spec.j @ transport.m - spec.j),
        )
    assert worst_endpoint <= 1e-10
    assert worst_form <= 1e-10

    n = 4
    worst_hyper_end = 0.0
    degenerate_seen = 0
    for i in range(200):
        want_degenerate = i % 10 == 0
        interior = rng.uniform(-2.0, 2.0, n - 2)
        if want_degenerate:
            interior[0] = -abs(interior[0]) - 0.2
        v = samp.random_unitary(rng, n)
        j = (v * np.concatenate([[1.0], interior, [-1.0]])) @ v.conj().T
        hspec = HyperbolicSpec(j, tol=TOL)
        z1 = samp.random_hyperbolic_member(rng, hspec, degenerate=want_degenerate)
        transport = hyperbolic_transitive(hspec, z1)
        if transport.degenerate:
            degenerate_seen += 1
        worst_hyper_end = max(worst_hyper_end, transport.endpoint_residual())
        scale = (1.0 + operator_norm(transport.matrix)) ** 2
        assert transport.certificate_residual() <= 1e-9 * scale
        assert transport.c > 0.0
        z = samp.random_hyperbolic_member(rng, hspec)
        assert hyperbolic_member(hspec, transport(z))
    assert worst_hyper_end <= 1e-9
    assert degenerate_seen >= 20

    print(
        f"criterion 7: cayley {worst_cayley:.3e}, isometry {worst_isometry:.3e}, "
        f"mobius inverse {worst_inverse:.3e}, product {worst_endpoint:.3e}, "
        f"hyperbolic {worst_hyper_end:.3e} with {degenerate_seen} degenerate"
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    args = ["verify", "--trials", "5", "--seed", "7"]
    assert main(args + ["--out", str(first)]) == 0
    out_first = capsys.readouterr().out
    assert main(args + ["--out", str(second)]) == 0
    out_second = capsys.readouterr().out
    assert out_first == out_second

    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k != "elapsed"}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj

    a = strip(json.loads(first.read_text(encoding="utf-8")))
    b = strip(json.loads(second.read_text(encoding="utf-8")))
    assert a == b

    start = time.perf_counter()
    rc = main(["verify"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    print(f"criterion 8: deterministic report; default verify in {elapsed:.2f}s")
    assert rc == 0
    assert elapsed < 60.0
