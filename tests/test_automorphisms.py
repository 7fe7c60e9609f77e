"""Tests for symmetries, midpoints, chains, affine records, and the entire curve."""

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from lftdom import (
    DEFAULT_TOL,
    AffineMap,
    ConvergenceError,
    Domain,
    HypothesisError,
    InternalCheckError,
    PathLeavesDomainError,
    ShapeError,
    SingularMatrixError,
    SpaceClosureError,
    SpectrumError,
    StepBoundError,
    Tolerance,
    Verdict,
    affine_equivalence,
    affine_transport,
    affine_transport_identity_residual,
    ball_margin,
    binomial_series,
    compose_symmetries_affine,
    diagonal_space,
    find_midpoint,
    fixed_point_derivative,
    form_margin,
    full_space,
    invertibles_domain,
    lft_apply,
    liouville_curve,
    operator_norm,
    potapov_ginzburg_map,
    principal_sqrt,
    quadric_domain,
    signature_from_projection,
    swap_involution,
    symmetric_space,
    symmetry_direct,
    symmetry_map,
    transitive_chain,
    try_invert,
    whole_space_domain,
)
from lftdom import automorphisms, domains, linalg
from lftdom.automorphisms import CHAIN_MARGIN, _midpoints, apply_chains, build_chains, walk_chain
from lftdom.linalg import SERIES_BLOCK_CAP, binomial_series_grid, binomial_series_shifted
from lftdom.verify import RunConfig, _lambda_grid, example_domains
from lftdom.sampling import (
    random_domain_member,
    random_matrix,
    random_target_in_reach,
    sample_members,
    sample_pg_members,
)


def scalar_domain(c, d, z0):
    return Domain(
        full_space(1, 1),
        np.array([[c]], dtype=complex),
        np.array([[d]], dtype=complex),
        np.array([[z0]], dtype=complex),
    )


def scalar_invertibles():
    return scalar_domain(1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Symmetries


def test_symmetry_blocks_scalar_oracle():
    m = symmetry_map(scalar_invertibles(), np.array([[2.0]])).coefficient_matrix()
    assert np.allclose(m, np.array([[0.0, 2.0], [0.5, 0.0]]))


def test_domain_identities_are_read_only_and_symmetries_keep_their_bits():
    # the frozen formulas build their identities per call; tobytes compares
    # the sign of every zero, such as the -0.0 blocks of -(I - yx) at yx = I
    rng = np.random.default_rng(24)
    doms = example_domains(RunConfig()) + [example_domains(RunConfig(dim_k=3, dim_h=1))[0]]
    assert (doms[-2].dim_k, doms[-2].label, doms[-1].space.shape) == (4, "quadric", (3, 1))
    negative_zeros = singular = built = built_singular = 0
    for dom in doms:
        k, h = dom.dim_k, dom.dim_h
        for eye, n in ((dom.eye_k, k), (dom.eye_h, h)):
            assert eye.dtype == complex and np.array_equal(eye, np.eye(n))
            with pytest.raises(ValueError):
                eye[0, 0] = 2.0
        points = [dom.z0, *sample_members(rng, dom, 5)]
        for y in points:
            x = dom.kernel_at(y)
            yx = y @ x
            want = (-(np.eye(k, dtype=complex) - yx), 2.0 * y - yx @ y, x, np.eye(h, dtype=complex) - x @ y)
            u = symmetry_map(dom, y)
            assert [m.tobytes() for m in (u.a, u.b, u.c, u.d)] == [m.tobytes() for m in want]
            assert u.coefficient_matrix().tobytes() == np.block([[want[0], want[1]], [want[2], want[3]]]).tobytes()
            negative_zeros += np.count_nonzero(np.signbit(u.a.view(float)) & (u.a.view(float) == 0))
            # one more probe, y - pinv(x), where the denominator
            # I - x pinv(x) is singular whenever x != 0
            probes = np.stack(points + [y - np.linalg.pinv(x)])
            images, flags = lft_apply(u, probes)
            assert images.shape == probes.shape and flags.shape == (len(probes),)
            built += bool(x.any())
            built_singular += bool(flags[-1])
            for z, image, flag in zip(probes, images, flags):
                den_inv = try_invert(want[2] @ z + want[3])
                assert flag == (den_inv is None)
                if flag:
                    singular += 1
                    assert np.isnan(image).all()
                    with pytest.raises(SingularMatrixError):
                        lft_apply(u, z)
                else:
                    alone = lft_apply(u, z)
                    assert alone.tobytes() == ((want[0] @ z + want[1]) @ den_inv).tobytes()
                    assert image.tobytes() == alone.tobytes()
    assert negative_zeros > 0 and singular - built_singular < 10
    assert built_singular == built >= 30


def test_symmetry_reduces_to_reflection_on_whole_space():
    rng = np.random.default_rng(41)
    dom = whole_space_domain(full_space(2, 2))
    for _ in range(10):
        y = random_matrix(rng, 2, 2)
        z = random_matrix(rng, 2, 2)
        u = symmetry_map(dom, y)
        assert operator_norm(u(z) - (2 * y - z)) <= 1e-12


def test_symmetry_reduces_to_sandwich_on_invertibles():
    rng = np.random.default_rng(42)
    dom = invertibles_domain(full_space(2, 2))
    for _ in range(10):
        y = random_matrix(rng, 2, 2) + 2 * np.eye(2)
        z = random_matrix(rng, 2, 2) + 2 * np.eye(2)
        u = symmetry_map(dom, y)
        assert operator_norm(u(z) - y @ np.linalg.inv(z) @ y) <= 1e-9


def test_symmetry_is_involutive_and_fixes_its_point():
    rng = np.random.default_rng(43)
    dom = invertibles_domain(full_space(2, 2))
    eye = np.eye(4)
    for _ in range(20):
        y = random_domain_member(rng, dom, margin=0.05)
        z = random_domain_member(rng, dom, margin=0.05)
        u = symmetry_map(dom, y)
        assert operator_norm(u(u(z)) - z) <= 1e-8 * (1 + operator_norm(z))
        assert operator_norm(u(y) - y) <= 1e-10
        m = symmetry_map(dom, y).coefficient_matrix()
        assert operator_norm(m @ m - eye) <= 1e-10


def test_symmetry_direct_matches_block_route():
    rng = np.random.default_rng(44)
    dom = invertibles_domain(full_space(3, 3))
    for _ in range(10):
        y = random_domain_member(rng, dom, margin=0.05)
        z = random_domain_member(rng, dom, margin=0.05)
        u = symmetry_map(dom, y)
        assert operator_norm(u(z) - symmetry_direct(dom, y, z)) <= 1e-9 * (
            1 + operator_norm(z)
        )


def test_symmetry_rejects_points_outside_the_domain():
    dom = invertibles_domain(full_space(2, 2))
    with pytest.raises(SingularMatrixError):
        symmetry_map(dom, np.diag([1.0, 0.0]))
    dom = invertibles_domain(diagonal_space(2))
    with pytest.raises(SpaceClosureError):
        symmetry_map(dom, np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_every_operation_judges_with_the_domain_tolerance():
    # sigma_min(C Z + D) = 1e-6 lies below this domain's inv_tol of 1e-4,
    # though far above the default threshold of 1e-10
    dom = invertibles_domain(full_space(2, 2), Tolerance(1e-3))
    near = np.diag([1.0, 1e-6]).astype(complex)
    clear = np.diag([1.0, 0.5]).astype(complex)
    eye = np.eye(2, dtype=complex)
    assert dom.membership(near) is Verdict.SINGULAR
    assert dom.membership(clear) is Verdict.MEMBER
    calls = {
        "symmetry_map": lambda: symmetry_map(dom, near),
        "symmetry_direct": lambda: symmetry_direct(dom, eye, near),
        "find_midpoint": lambda: find_midpoint(dom, near, clear),
        "compose_symmetries_affine": lambda: compose_symmetries_affine(dom, clear, near),
        "affine_transport": lambda: affine_transport(dom, near),
        "swap_involution": lambda: swap_involution(dom, near),
        "liouville_curve": lambda: liouville_curve(dom, near),
        "transitive_chain": lambda: transitive_chain(dom, near),
        # the records built on the domain judge with its tolerance too
        "chain.apply": lambda: transitive_chain(dom, clear).apply(near),
        "swap involution": lambda: swap_involution(dom, clear)(near),
        # and so do the maps built on it
        "symmetry map": lambda: symmetry_map(dom, clear)(near),
        "chain factor": lambda: lft_apply(transitive_chain(dom, clear).factors[0], near),
        "swap involution as_lft": lambda: lft_apply(swap_involution(dom, clear).as_lft(), near),
    }
    for name, call in calls.items():
        with pytest.raises(SingularMatrixError):
            call()
            pytest.fail(f"{name} accepted a point on the domain's singular set")


@pytest.mark.parametrize("scale, tol", [(1e6, DEFAULT_TOL), (1.0, Tolerance(0.0))])
def test_a_member_whose_lu_fails_raises_the_typed_error(scale, tol):
    # [[1, 2], [2, 4]] is exactly singular, but the SVD's rounding leaves its
    # smin above inv_tol, so it is a member; inverting it at a symmetry or a
    # curve raised numpy's LinAlgError
    dom = invertibles_domain(full_space(2, 2), tol)
    z = scale * np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    assert dom.membership(z) is Verdict.MEMBER
    calls = {
        "denominator_inverse": (lambda: dom.denominator_inverse(z), "outside the domain"),
        "symmetry_map": (lambda: symmetry_map(dom, z), "at the symmetry point y"),
        "liouville_curve": (lambda: liouville_curve(dom, z), "at the curve endpoint z"),
        "transitive_chain": (lambda: transitive_chain(dom, z), "at the chain target"),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, (call, where) in calls.items():
            with pytest.raises(SingularMatrixError, match=where):
                call()
                pytest.fail(f"{name} inverted a matrix whose LU fails")


def test_fixed_point_derivative_is_minus_identity():
    rng = np.random.default_rng(45)
    dom = invertibles_domain(full_space(2, 2))
    for _ in range(10):
        y = random_domain_member(rng, dom, margin=0.1)
        v = 0.1 * random_matrix(rng, 2, 2)
        der = fixed_point_derivative(dom, y, v)
        assert operator_norm(der + v) <= 1e-6


def test_fixed_point_derivative_validates_input():
    dom = invertibles_domain(diagonal_space(2))
    y = np.diag([1.0, 2.0]).astype(complex)
    with pytest.raises(SpaceClosureError):
        fixed_point_derivative(dom, y, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetries_and_derivatives_of_a_stack_keep_the_bits_of_each_point():
    rng = np.random.default_rng(46)
    for dom in example_domains(RunConfig()) + example_domains(RunConfig(dim_k=3, dim_h=1)):
        y, z = (sample_members(rng, dom, 5, margin=0.05) for _ in range(2))
        v = np.stack([0.1 * dom.space.lincomb(rng.uniform(-1, 1, dom.space.dim)) for _ in y])
        u = symmetry_map(dom, y)
        images, singular = lft_apply(u, z)
        derivatives, flagged = fixed_point_derivative(dom, y, v)
        assert not singular.any() and not flagged.any()
        for i in range(len(y)):
            alone = symmetry_map(dom, y[i])
            assert all(getattr(u, b)[i].tobytes() == getattr(alone, b).tobytes() for b in "abcd")
            assert images[i].tobytes() == lft_apply(alone, z[i]).tobytes()
            assert derivatives[i].tobytes() == fixed_point_derivative(dom, y[i], v[i]).tobytes()
    # every point of a stack must be a member, and every direction in the space
    dom = invertibles_domain(diagonal_space(2))
    y = np.stack([np.diag([1.0, 2.0]), np.diag([0.0, 1.0])]).astype(complex)
    with pytest.raises(SingularMatrixError, match="symmetry point y"):
        symmetry_map(dom, y)
    with pytest.raises(SpaceClosureError):
        fixed_point_derivative(dom, y[:1], np.array([[[0.0, 1.0], [0.0, 0.0]]]))


# ---------------------------------------------------------------------------
# Midpoints


def test_midpoint_scalar_oracle():
    y = find_midpoint(scalar_invertibles(), np.array([[1.0]]), np.array([[1.5]]))
    assert abs(y[0, 0] - math.sqrt(1.5)) <= 1e-12


def test_midpoint_symmetry_reaches_the_target():
    rng = np.random.default_rng(46)
    dom = invertibles_domain(full_space(2, 2))
    for _ in range(15):
        z = random_domain_member(rng, dom, margin=0.05)
        shifted = Domain(dom.space, dom.c, dom.d, z)
        w = random_target_in_reach(rng, shifted)
        y = find_midpoint(dom, z, w)
        assert dom.is_member(y)
        assert operator_norm(symmetry_direct(dom, y, z) - w) <= 1e-8 * (
            1 + operator_norm(w)
        )


def test_midpoint_enforces_the_step_bound():
    with pytest.raises(StepBoundError, match="step bound"):
        find_midpoint(scalar_invertibles(), np.array([[1.0]]), np.array([[4.0]]))


# ---------------------------------------------------------------------------
# Transitive chains


def test_chain_on_whole_space_is_a_translation():
    rng = np.random.default_rng(47)
    dom = whole_space_domain(full_space(2, 2))
    w = random_matrix(rng, 2, 2)
    chain = transitive_chain(dom, w)
    assert chain.factor_count % 2 == 0
    assert chain.residual <= 1e-12
    for _ in range(5):
        z = random_matrix(rng, 2, 2)
        assert operator_norm(chain.apply(z) - (z + w)) <= 1e-10
        assert operator_norm(chain.affine(z) - (z + w)) <= 1e-10


def test_chain_along_supplied_arc_path():
    dom = scalar_invertibles()
    path = [np.array([[np.exp(1j * np.pi * t)]]) for t in np.linspace(0.0, 1.0, 5)]
    chain = transitive_chain(dom, np.array([[-1.0]]), path=path)
    assert chain.factor_count == 4
    assert chain.residual <= 1e-8
    assert all(s <= 0.9 + 1e-12 for s in chain.step_norms)
    probe = np.array([[0.5 - 0.25j]])
    assert operator_norm(chain.apply(probe) - chain.affine(probe)) <= 1e-9
    assert operator_norm(chain.apply(probe) - lft_apply(chain.as_lft(), probe)) <= 1e-8


def test_chain_straight_route_fails_through_the_singular_set():
    dom = scalar_invertibles()
    with pytest.raises(PathLeavesDomainError) as err:
        transitive_chain(dom, np.array([[-1.0]]))
    assert err.value.index >= 1


def test_chain_matches_pointwise_composition_on_matrices():
    rng = np.random.default_rng(48)
    dom = invertibles_domain(full_space(2, 2))
    for _ in range(5):
        target = random_target_in_reach(rng, dom)
        chain = transitive_chain(dom, target)
        assert chain.factor_count % 2 == 0
        assert chain.residual <= 1e-8 * (1 + operator_norm(target))
        assert all(s <= 0.9 + 1e-12 for s in chain.step_norms)
        assert operator_norm(chain.apply(dom.z0) - target) <= 1e-8 * (
            1 + operator_norm(target)
        )
        for _ in range(5):
            z = random_domain_member(rng, dom, margin=0.1)
            assert operator_norm(chain.affine(z) - chain.apply(z)) <= 1e-9 * (
                1 + operator_norm(z)
            )


def test_stacked_chain_apply_matches_the_scalar_call_bit_for_bit():
    rng = np.random.default_rng(49)
    for dom in example_domains(RunConfig(dim_k=3, dim_h=1)) + example_domains(RunConfig()):
        chain = transitive_chain(dom, random_domain_member(rng, dom, margin=0.05))
        probes = np.stack([random_domain_member(rng, dom, margin=0.05) for _ in range(6)])
        images, singular = chain.apply(probes)
        assert images.shape == probes.shape and not singular.any()
        for probe, image in zip(probes, images):
            assert np.array_equal(chain.apply(probe), image)
        # the affine fold takes the stack too, item by item
        folded = chain.affine(probes)
        assert all(np.array_equal(chain.affine(p), f) for p, f in zip(probes, folded))


def test_stacked_chain_apply_drops_a_probe_that_dies_at_a_middle_factor():
    tol = Tolerance(1e-3)
    dom = invertibles_domain(full_space(2, 2), tol)
    chain = transitive_chain(dom, np.array([[1.0, 2.0], [0.0, 1.0]]))
    assert chain.factor_count >= 4
    # a member whose image under the first factor is near diag(1, 1e-6)
    doomed = np.diag([1.0, 1e6]).astype(complex)
    assert dom.membership(doomed) is Verdict.MEMBER
    first = lft_apply(chain.factors[0], doomed)
    with pytest.raises(SingularMatrixError):
        lft_apply(chain.factors[1], first)
    with pytest.raises(SingularMatrixError):
        chain.apply(doomed)
    rng = np.random.default_rng(50)
    members = [random_domain_member(rng, dom, margin=0.05) for _ in range(4)]
    probes = np.stack(members[:2] + [doomed] + members[2:])
    images, singular = chain.apply(probes)
    assert singular.tolist() == [False, False, True, False, False]
    assert np.isnan(images[2]).all()
    for i in (0, 1, 3, 4):
        assert np.array_equal(images[i], chain.apply(probes[i]))
    # only dead probes: no stacked kernel ever sees a NaN
    images, singular = chain.apply(np.stack([doomed, doomed]))
    assert singular.all() and np.isnan(images).all()
    with pytest.raises(ShapeError):
        chain.apply(np.stack([probes, probes]))


def test_chain_residual_is_the_frozen_factor_loop_bit_for_bit(scaled_member):
    # the residual loop transitive_chain ran before it took chain.apply
    def frozen_residual(chain):
        dom, reached = chain.domain, chain.domain.z0
        for f in chain.factors:
            den_inv = try_invert(f.c @ reached + f.d, dom.tol)
            assert den_inv is not None
            reached = (f.a @ reached + f.b) @ den_inv
        return float(operator_norm(reached - chain.target))

    rng = np.random.default_rng(51)
    doms = example_domains(RunConfig()) + [example_domains(RunConfig(dim_k=3, dim_h=1))[3]]
    assert doms[-2].label == "quadric" and doms[-1].space.shape == (3, 1)
    for dom in doms:
        for scale in (0.5, 1.0, 2.0):
            chain = transitive_chain(dom, scaled_member(rng, dom, scale, 0.05))
            assert chain.residual.hex() == frozen_residual(chain).hex()
    dom = invertibles_domain(full_space(2, 2))
    path = [dom.z0, np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[2.0, 1.0], [0.5, 1.0]])]
    chain = transitive_chain(dom, path[-1], path=path)
    assert chain.residual.hex() == frozen_residual(chain).hex()


def test_chain_validates_path():
    dom = scalar_invertibles()
    target = np.array([[2.0]])
    with pytest.raises(ValueError):
        transitive_chain(dom, target, path=[target])
    with pytest.raises(ValueError):
        transitive_chain(dom, target, path=[np.array([[3.0]]), target])
    with pytest.raises(PathLeavesDomainError):
        transitive_chain(dom, target, path=[dom.z0, np.array([[0.0]]), target])


def doubling_steps(dom, a, b, margin=0.9, cap=2**14):
    """Steps the former uniform doubling took on [a, b], with its worst step.

    Tries n = 1, 2, 4, ... equal steps until every step norm
    ||(C W + D)^-1 C (W' - W)|| is at most margin; None when a subdivision
    point is singular or n would pass cap.
    """
    r = b - a
    n = 1
    while n <= cap:
        pts = a + (np.arange(n + 1) / n)[:, None, None] * r
        den = dom.c @ pts + dom.d
        if (np.linalg.svd(den, compute_uv=False)[:, -1] <= 1e-10).any():
            return None
        x = np.linalg.solve(den[:-1], np.broadcast_to(dom.c, (n,) + dom.c.shape))
        worst = np.linalg.svd(x @ (pts[1:] - pts[:-1]), compute_uv=False)[:, 0].max()
        if worst <= margin:
            return n, worst
        n *= 2
    return None


def recomputed_step_norms(dom, chain):
    w = chain.waypoints
    return [
        operator_norm(np.linalg.solve(dom.denominator(w[i]), dom.c) @ (w[i + 1] - w[i]))
        for i in range(len(w) - 1)
    ]


def test_greedy_chain_never_takes_more_factors_than_doubling():
    rng = np.random.default_rng(61)
    compared = 0
    for dom in example_domains(RunConfig()):
        for _ in range(10):
            target = random_domain_member(rng, dom, margin=0.05)
            old = doubling_steps(dom, dom.z0, target)
            if old is None or old[1] > 0.9 * (1.0 - 1e-3):
                continue
            old_factors = old[0] + old[0] % 2
            chain = transitive_chain(dom, target)
            assert chain.factor_count <= old_factors, dom.label
            compared += 1
    assert compared >= 40


def test_greedy_chain_step_norms_recomputed_stay_within_the_margin():
    rng = np.random.default_rng(62)
    for dom in example_domains(RunConfig()):
        target = random_target_in_reach(rng, dom)
        chain = transitive_chain(dom, target)
        recomputed = recomputed_step_norms(dom, chain)
        assert max(recomputed) <= CHAIN_MARGIN, dom.label
        assert np.allclose(recomputed, chain.step_norms, rtol=1e-9, atol=1e-12)


def test_chain_walk_stops_at_the_step_cap(monkeypatch):
    # the straight route from 1 to 100 takes eight steps, each z -> 1.9 z
    # until the last
    dom = scalar_invertibles()
    target = np.array([[100.0]])
    monkeypatch.setattr(automorphisms, "CHAIN_STEP_CAP", 7)
    with pytest.raises(StepBoundError, match="within 7 steps on segment 0;"):
        transitive_chain(dom, target)
    monkeypatch.setattr(automorphisms, "CHAIN_STEP_CAP", 8)
    assert transitive_chain(dom, target).factor_count == 8


def test_chain_through_a_defective_singular_point_fails_at_once(monkeypatch):
    # C is a Jordan block and C (I + t J) has a double zero of det at t = 1/2;
    # steps toward it shrink without end, so only the crossing test stops it
    # (the small cap makes a walk that misses it fail fast, and differently)
    monkeypatch.setattr(automorphisms, "CHAIN_STEP_CAP", 8)
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    dom = Domain(full_space(2, 2), jordan, np.zeros((2, 2)), np.eye(2))
    target = np.eye(2) + np.array([[-2.0, 1.0], [0.0, -2.0]])
    with pytest.raises(PathLeavesDomainError) as err:
        transitive_chain(dom, target)
    assert err.value.index == 1
    # the same crossing with the defective eigenvalue split by rounding
    u = np.linalg.qr(random_matrix(np.random.default_rng(63), 2, 2))[0]
    r = u @ np.array([[-2.0, 1.0], [0.0, -2.0]]) @ u.conj().T
    with pytest.raises(PathLeavesDomainError) as err:
        transitive_chain(invertibles_domain(full_space(2, 2)), np.eye(2) + r)
    assert err.value.index == 1


def test_chain_passing_close_to_the_singular_set_takes_few_steps():
    # the straight route from 1 to -1 + 2e-6 i passes 1e-6 from 0
    dom = scalar_invertibles()
    target = np.array([[-1.0 + 2e-6j]])
    chain = transitive_chain(dom, target)
    assert chain.factor_count <= 64
    assert chain.residual <= 1e-8
    assert max(recomputed_step_norms(dom, chain)) <= 0.9


def test_quadric_tail_target_takes_few_factors():
    dom = example_domains(RunConfig())[5]
    coords = [
        -0.7637895456982826 - 0.47927155530378274j,
        -0.27947223063271365 - 0.471320541735349j,
        -0.8128262939148008 - 0.42334402270426885j,
        0.19904894610655433 - 0.8045686848312199j,
    ]
    target = dom.space.lincomb(coords)
    assert doubling_steps(dom, dom.z0, target)[0] == 512
    chain = transitive_chain(dom, target)
    assert chain.factor_count <= 32
    assert chain.residual <= 1e-8 * (1 + operator_norm(target))


def rebuilt_from_waypoints(dom, chain):
    """Midpoints, factor matrices and affine record through the public functions."""
    w = chain.waypoints
    midpoints = [find_midpoint(dom, a, b) for a, b in zip(w, w[1:])]
    factors = [symmetry_map(dom, y).coefficient_matrix() for y in midpoints]
    affine = AffineMap.identity(dom.dim_k, dom.dim_h)
    for i in range(0, len(midpoints), 2):
        affine = compose_symmetries_affine(dom, midpoints[i + 1], midpoints[i]).compose(affine)
    affine = AffineMap(
        base=dom.z0, offset=affine(dom.z0), left=affine.left, right=affine.right
    )
    return midpoints, factors, affine


def test_chain_factors_equal_the_public_constructions_bit_for_bit():
    rng = np.random.default_rng(64)
    # with generic coefficients a changed operation order shows in the last bits
    c, d = random_matrix(rng, 3, 3), np.eye(3) + random_matrix(rng, 3, 3)
    generic = Domain(full_space(3, 3), c, d, np.zeros((3, 3)))
    compared = 0
    for dom in example_domains(RunConfig()) + [generic]:
        for _ in range(20):
            target = random_domain_member(rng, dom, margin=0.05)
            try:
                chain = transitive_chain(dom, target)
            except PathLeavesDomainError:
                continue
            midpoints, factors, affine = rebuilt_from_waypoints(dom, chain)
            assert all(np.array_equal(a, b) for a, b in zip(chain.midpoints, midpoints))
            got = [f.coefficient_matrix() for f in chain.factors]
            assert all(np.array_equal(a, b) for a, b in zip(got, factors)), dom.label
            for field in ("base", "offset", "left", "right"):
                assert np.array_equal(getattr(chain.affine, field), getattr(affine, field))
            compared += 1
    assert compared >= 100


def loop_chain(dom, chain):
    """Midpoints, factor blocks, affine record and residual, one factor at a time.

    The reference for the stacked build: every kernel call takes one matrix,
    and every formula is written out here on its own.
    """
    eye_k, eye_h = np.eye(dom.dim_k, dtype=complex), np.eye(dom.dim_h, dtype=complex)
    w = chain.waypoints
    midpoints, kernels, blocks = [], [], []
    for z, nxt in zip(w, w[1:]):
        z_den_inv = try_invert(dom.c @ z + dom.d, dom.tol)
        x, r = z_den_inv @ dom.c, nxt - z
        xr = x @ r
        assert operator_norm(xr) < 1.0
        q = principal_sqrt(eye_h + xr, dom.tol)
        y = z + r @ try_invert(eye_h + q, dom.tol)
        assert dom.space.contains(y, dom.tol)
        x_y = try_invert(dom.c @ y + dom.d, dom.tol) @ dom.c
        reached = y - (z - y) @ z_den_inv @ (dom.c @ y + dom.d)
        assert operator_norm(reached - nxt) <= 1e-6 * (1.0 + operator_norm(nxt))
        yx = y @ x_y
        midpoints.append(y)
        kernels.append(x_y)
        blocks.append((-(eye_k - yx), 2.0 * y - yx @ y, x_y, eye_h - x_y @ y))
    affine = AffineMap.identity(dom.dim_k, dom.dim_h)
    for i in range(0, len(midpoints), 2):
        y, outer, x_y = midpoints[i], midpoints[i + 1], kernels[i]
        y_den_inv = try_invert(dom.c @ y + dom.d, dom.tol)
        offset = outer - (y - outer) @ y_den_inv @ (dom.c @ outer + dom.d)
        d = outer - y
        pair = AffineMap(y, offset, eye_k + d @ x_y, eye_h + x_y @ d)
        affine = pair.compose(affine)
    affine = AffineMap(dom.z0, affine(dom.z0), affine.left, affine.right)
    reached = dom.z0
    for a, b, c, d in blocks:
        reached = (a @ reached + b) @ try_invert(c @ reached + d, dom.tol)
    return midpoints, blocks, affine, float(operator_norm(reached - chain.target))


def symmetric_domain(rng, n):
    c = random_matrix(rng, n, n)
    z0 = random_matrix(rng, n, n)
    c, z0 = c + c.T, z0 + z0.T
    return Domain(symmetric_space(n), c, np.eye(n) - c @ z0, z0)


def full_domain(rng, n):
    c, z0 = random_matrix(rng, n, n), random_matrix(rng, n, n)
    return Domain(full_space(n, n), c, np.eye(n) - c @ z0, z0)


@pytest.mark.parametrize("kind", ["quadric-4", "full-8", "symmetric-4", "user-path"])
def test_stacked_chain_matches_the_per_factor_loop_bit_for_bit(kind):
    rng = np.random.default_rng(66)
    if kind == "quadric-4":
        dom = quadric_domain(4).domain
    elif kind == "full-8":
        dom = full_domain(rng, 8)
    else:
        dom = symmetric_domain(rng, 4)
    compared = factors = 0
    for _ in range(12):
        if kind == "user-path":
            turn, target = sample_members(rng, dom, 2, margin=0.05)
            path = [dom.z0, turn, target]
        else:
            target, path = random_domain_member(rng, dom, margin=0.05), None
        try:
            chain = transitive_chain(dom, target, path=path)
        except PathLeavesDomainError:
            continue
        midpoints, blocks, affine, residual = loop_chain(dom, chain)
        assert len(chain.midpoints) == len(midpoints) == chain.factor_count
        for got, want in zip(chain.midpoints, midpoints):
            assert np.array_equal(got, want)
        # find_midpoint is the same construction on a stack of one
        for z, nxt, got in zip(chain.waypoints, chain.waypoints[1:], chain.midpoints):
            assert np.array_equal(find_midpoint(dom, z, nxt), got)
        for f, m, want in zip(chain.factors, chain.coefficients, blocks):
            assert all(np.array_equal(g, b) for g, b in zip((f.a, f.b, f.c, f.d), want))
            assert np.array_equal(m, np.block([[want[0], want[1]], [want[2], want[3]]]))
        for field in ("base", "offset", "left", "right"):
            assert np.array_equal(getattr(chain.affine, field), getattr(affine, field))
        assert chain.residual == residual
        compared += 1
        factors += chain.factor_count
    assert compared >= 6 and factors >= 4 * compared


def test_a_stack_of_midpoints_raises_the_first_item_its_first_failing_check_flags():
    # on the scalar invertibles at eq_tol 0.9 the pairs (1, 3) and (1, 5)
    # break the step bound, which is checked first, and the pair (1, 0.5)
    # meets the square root's cut
    dom = scalar_domain(1.0, 0.0, 1.0)
    dom = Domain(dom.space, dom.c, dom.d, dom.z0, Tolerance(0.9))
    pairs = {"ok": (1.0, 1.2), "step": (1.0, 3.0), "far": (1.0, 5.0), "cut": (1.0, 0.5)}
    cut = (
        "matrix has an eigenvalue on the closed negative real axis; "
        "the principal square root is not defined there"
    )
    alone = {
        "step": (StepBoundError, "step bound ||x (w - z)|| < 1 fails: got 2; subdivide the displacement"),
        "far": (StepBoundError, "step bound ||x (w - z)|| < 1 fails: got 4; subdivide the displacement"),
        "cut": (SpectrumError, cut),
    }
    for name, (kind, message) in alone.items():
        z, w = pairs[name]
        with pytest.raises(kind) as exc:
            find_midpoint(dom, np.array([[z]]), np.array([[w]]))
        assert str(exc.value) == message
        if kind is SpectrumError:
            assert exc.value.index is None
    orders = (
        ["ok", "step", "cut"], ["ok", "cut", "step"], ["cut", "ok"], ["ok", "step"],
        # after two passing items; a cut before the step that the stack flags first
        ["ok", "ok", "step"], ["ok", "ok", "cut"], ["ok", "ok", "cut", "step"],
        ["cut", "step"], ["step", "cut"],
        # the step bound's message is its first flagged item's
        ["ok", "cut", "far", "step"], ["step", "far"],
    )
    for order in orders:
        z = np.array([[[pairs[p][0]]] for p in order], dtype=complex)
        w = np.array([[[pairs[p][1]]] for p in order], dtype=complex)
        # the checks in pipeline order: the step bound, then the square root's cut
        flagged = [i for i, p in enumerate(order) if p in ("step", "far")]
        flagged = flagged or [i for i, p in enumerate(order) if p == "cut"]
        kind, message = alone[order[flagged[0]]]
        with pytest.raises(kind) as exc:
            _midpoints(dom, z, 1.0 / z, w)
        assert str(exc.value) == message, order
        if kind is SpectrumError:
            assert exc.value.index == flagged[0], order


def test_a_singular_i_plus_q_is_an_internal_error_on_one_matrix_and_on_a_stack(monkeypatch):
    import lftdom.automorphisms

    # the midpoint construction is the only caller of automorphisms.try_invert
    # before a chain exists; it judges every item from position `first` on
    # singular
    first = 0

    def singular_from_first(z, tol=DEFAULT_TOL):
        inverses, singular = try_invert(z, tol)
        singular[first:] = True
        return inverses, singular

    monkeypatch.setattr(lftdom.automorphisms, "try_invert", singular_from_first)
    dom = scalar_invertibles()
    with pytest.raises(InternalCheckError, match="I \\+ q is singular"):
        find_midpoint(dom, np.array([[1.0]]), np.array([[1.5]]))
    first = 2
    z = np.array([[[1.0]], [[1.5]], [[2.0]], [[2.5]]], dtype=complex)
    with pytest.raises(InternalCheckError, match="I \\+ q is singular"):
        _midpoints(dom, z, 1.0 / z, z + 0.5)
    y, _ = _midpoints(dom, z[:2], 1.0 / z[:2], z[:2] + 0.5)
    assert y.shape == (2, 1, 1)


def batch_walks(rng, dom, count):
    """count walks to random members of dom, one of them along a supplied path."""
    walks = []
    while len(walks) < count:
        turn, target = sample_members(rng, dom, 2, margin=0.05)
        path = [dom.z0, turn, target] if len(walks) == 1 else None
        try:
            walks.append((walk_chain(dom, target, path), path))
        except (PathLeavesDomainError, StepBoundError):
            continue
    return walks


def test_a_batch_build_gives_each_chain_the_bytes_of_its_build_alone():
    rng = np.random.default_rng(67)
    lengths = set()
    for dom in example_domains(RunConfig()):
        walks = batch_walks(rng, dom, 8)
        batch = build_chains(dom, [walk for walk, _ in walks])
        for chain, ((target, *_), path) in zip(batch, walks):
            alone = transitive_chain(dom, target, path=path)
            lengths.add(chain.factor_count)
            assert chain.factor_count == alone.factor_count
            for field in ("waypoints", "midpoints", "step_norms"):
                got, want = getattr(chain, field), getattr(alone, field)
                assert [np.asarray(x).tobytes() for x in got] == [np.asarray(x).tobytes() for x in want]
            assert chain.coefficients.tobytes() == alone.coefficients.tobytes()
            for f, g in zip(chain.factors, alone.factors):
                assert all(getattr(f, b).tobytes() == getattr(g, b).tobytes() for b in "abcd")
            for field in ("base", "offset", "left", "right"):
                assert getattr(chain.affine, field).tobytes() == getattr(alone.affine, field).tobytes()
            assert chain.residual.hex() == alone.residual.hex()
    # the batches mix chains of different lengths
    assert len(lengths) >= 4


def test_stacked_chains_apply_each_probe_as_its_own_chain_does():
    tol = Tolerance(1e-3)
    dom = invertibles_domain(full_space(2, 2), tol)
    rng = np.random.default_rng(68)
    chains = [transitive_chain(dom, t) for t in sample_members(rng, dom, 4, margin=0.05)]
    chains.append(transitive_chain(dom, np.array([[1.0, 2.0], [0.0, 1.0]])))
    assert len({chain.factor_count for chain in chains}) > 1
    probes = np.stack([sample_members(rng, dom, 3, margin=0.05) for _ in chains])
    # a member that dies at the second factor of the last chain, in the middle
    probes[-1, 1] = np.diag([1.0, 1e6])
    images, singular = apply_chains(chains, probes)
    assert singular.sum() == 1 and singular[-1, 1]
    assert np.isnan(images[-1, 1]).all()
    for chain, row, dead, out in zip(chains, probes, singular, images):
        for probe, died, image in zip(row, dead, out):
            if not died:
                assert image.tobytes() == chain.apply(probe).tobytes()
    with pytest.raises(ShapeError):
        apply_chains(chains[:2], probes)


def test_an_empty_stack_of_probes_has_empty_images():
    dom = invertibles_domain(full_space(2, 2))
    rng = np.random.default_rng(69)
    chains = [transitive_chain(dom, t) for t in sample_members(rng, dom, 2, margin=0.05)]
    images, singular = chains[0].apply(sample_members(rng, dom, 0))
    assert images.shape == (0, 2, 2) and singular.shape == (0,)
    images, singular = apply_chains(chains, np.empty((2, 0, 2, 2)))
    assert images.shape == (2, 0, 2, 2) and singular.shape == (2, 0)


def test_no_chains_apply_to_no_probes():
    images, singular = apply_chains([], np.empty((0, 3, 2, 2)))
    assert images.shape == (0, 3, 2, 2) and singular.shape == (0, 3)


def test_no_walks_build_no_chains():
    assert build_chains(invertibles_domain(full_space(2, 2)), []) == []


def test_a_residual_stack_that_flags_a_chain_raises_lft_applys_error(monkeypatch):
    dom = invertibles_domain(full_space(2, 2))
    walks = [walk for walk, _ in batch_walks(np.random.default_rng(70), dom, 3)]
    sizes, flagged = [], []

    def flag_at_the_first_residual_step(z, tol=DEFAULT_TOL):
        # a build's first stacked inversion checks its midpoints; the second
        # carries z0 through the first factor of every chain
        inverses, singular = try_invert(z, tol)
        sizes.append(len(z))
        if len(sizes) == 2:
            singular[-1] = True
            flagged.append(z[-1].copy())
        return inverses, singular

    def flag_that_item_alone(z, tol=DEFAULT_TOL):
        # one call on the flagged item gets the stack's verdict
        return None if any(np.array_equal(z, f) for f in flagged) else try_invert(z, tol)

    monkeypatch.setattr(domains, "try_invert", flag_at_the_first_residual_step)
    monkeypatch.setattr(linalg, "try_invert", flag_that_item_alone)
    with pytest.raises(SingularMatrixError) as caught:
        build_chains(dom, walks)
    assert str(caught.value) == domains.LFT_SINGULAR and sizes[1] == len(walks)


def test_chain_inverts_at_most_four_times_per_factor(monkeypatch):
    import lftdom.automorphisms
    import lftdom.domains

    calls = []

    def counting_try_invert(z, tol=DEFAULT_TOL):
        calls.append(None)
        return try_invert(z, tol)

    monkeypatch.setattr(lftdom.automorphisms, "try_invert", counting_try_invert)
    monkeypatch.setattr(lftdom.domains, "try_invert", counting_try_invert)
    rng = np.random.default_rng(65)
    for dom in example_domains(RunConfig()):
        for _ in range(3):
            target = random_target_in_reach(rng, dom)
            calls.clear()
            chain = transitive_chain(dom, target)
            assert len(calls) <= 4 * chain.factor_count + 2, dom.label


# ---------------------------------------------------------------------------
# Affine records


def test_affine_record_checks_shapes_and_its_call_checks_points():
    eye, zero = np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)
    record = AffineMap(zero, zero, eye, eye)
    assert np.array_equal(record(2 * eye), 2 * eye)
    with pytest.raises(ShapeError):
        AffineMap(zero, zero, np.eye(3), eye)
    with pytest.raises(ShapeError):
        AffineMap(np.zeros(2), zero, eye, eye)
    with pytest.raises(ValueError):
        record(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        record(np.zeros((2, 3)))


def test_composed_symmetries_scalar_oracle():
    dom = scalar_invertibles()
    aff = compose_symmetries_affine(dom, np.array([[2.0]]), np.array([[1.0]]))
    assert abs(aff(np.array([[3.0]]))[0, 0] - 12.0) <= 1e-12


def test_composed_symmetries_match_pointwise_and_kill_the_c_block():
    rng = np.random.default_rng(49)
    dom = invertibles_domain(full_space(2, 2))
    for _ in range(10):
        y = random_domain_member(rng, dom, margin=0.05)
        w = random_domain_member(rng, dom, margin=0.05)
        aff = compose_symmetries_affine(dom, w, y)
        pair = symmetry_map(dom, w).compose(symmetry_map(dom, y))
        assert operator_norm(pair.c) <= 1e-9 * (1 + operator_norm(pair.d))
        z = random_domain_member(rng, dom, margin=0.05)
        assert operator_norm(
            aff(z) - symmetry_direct(dom, w, symmetry_direct(dom, y, z))
        ) <= 1e-9 * (1 + operator_norm(z))


def test_affine_record_has_vanishing_second_differences():
    rng = np.random.default_rng(50)
    dom = invertibles_domain(full_space(2, 2))
    y = random_domain_member(rng, dom, margin=0.05)
    w = random_domain_member(rng, dom, margin=0.05)
    aff = compose_symmetries_affine(dom, w, y)
    for _ in range(10):
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 2, 2)
        c = random_matrix(rng, 2, 2)
        d = a + b - c
        second = aff(a) + aff(b) - aff(c) - aff(d)
        assert operator_norm(second) <= 1e-10 * (1 + operator_norm(aff(a)))


def test_affine_transport_scalar_oracle():
    dom = scalar_invertibles()
    phi = affine_transport(dom, np.array([[1.5]]))
    assert abs(phi(np.array([[1.0]]))[0, 0] - 1.5) <= 1e-12
    assert abs(phi(np.array([[2.0]]))[0, 0] - 3.0) <= 1e-12


def test_affine_transport_certifying_identity():
    rng = np.random.default_rng(51)
    dom = invertibles_domain(full_space(2, 2))
    for _ in range(10):
        w0 = random_target_in_reach(rng, dom)
        phi = affine_transport(dom, w0)
        assert operator_norm(phi(dom.z0) - w0) <= 1e-10 * (1 + operator_norm(w0))
        z = random_domain_member(rng, dom, margin=0.05)
        assert affine_transport_identity_residual(dom, phi, z) <= 1e-9 * (
            1 + operator_norm(z)
        )
        assert dom.membership(phi(z)) is Verdict.MEMBER


def test_affine_transport_enforces_the_pull_bound():
    with pytest.raises(StepBoundError):
        affine_transport(scalar_invertibles(), np.array([[4.0]]))


def test_swap_involution_properties():
    rng = np.random.default_rng(52)
    dom = invertibles_domain(full_space(2, 2))
    for _ in range(10):
        w0 = random_target_in_reach(rng, dom)
        v = swap_involution(dom, w0)
        assert operator_norm(v(dom.z0) - w0) <= 1e-10 * (1 + operator_norm(w0))
        assert operator_norm(v(w0) - dom.z0) <= 1e-9 * (1 + operator_norm(w0))
        z = random_domain_member(rng, dom, margin=0.1)
        assert operator_norm(v(v(z)) - z) <= 1e-9 * (1 + operator_norm(z))
        assert operator_norm(lft_apply(v.as_lft(), z) - v(z)) <= 1e-8 * (
            1 + operator_norm(z)
        )


def test_swap_involution_at_base_point_is_the_symmetry():
    rng = np.random.default_rng(53)
    dom = invertibles_domain(full_space(2, 2))
    v = swap_involution(dom, dom.z0)
    for _ in range(10):
        z = random_domain_member(rng, dom, margin=0.05)
        assert operator_norm(v(z) - symmetry_direct(dom, dom.z0, z)) <= 1e-9 * (
            1 + operator_norm(z)
        )


def test_swap_involution_accepts_every_member_of_its_domain():
    # at z = 5e-8 the normalized denominator I + x0 (z - z0) = z / 1000 falls
    # below inv_tol while c z + d = z does not: z is a member
    dom = scalar_domain(1.0, 0.0, 1000.0)
    z = np.array([[5e-8]], dtype=complex)
    assert dom.membership(z) is Verdict.MEMBER
    v = swap_involution(dom, dom.z0)
    expected = symmetry_direct(dom, dom.z0, z)
    assert operator_norm(v(z) - expected) <= 1e-12 * operator_norm(expected)
    with pytest.raises(SingularMatrixError, match="outside the domain"):
        v(np.zeros((1, 1), dtype=complex))


def test_affine_equivalence_scalar_oracle():
    dom1 = scalar_domain(2.0, 0.5, 0.25)
    dom2 = scalar_domain(6.0, 0.25, 0.125)
    eq = affine_equivalence(dom1, dom2, np.array([[3.0]]), dom1.z0, dom2.z0)
    assert abs(eq(dom1.z0)[0, 0] - 0.125) <= 1e-14
    z = np.array([[0.4]])
    expected = 0.125 + (0.4 - 0.25) / 3.0
    assert abs(eq(z)[0, 0] - expected) <= 1e-12
    assert eq.certificate_residual(z) <= 1e-12


def test_affine_equivalence_certificate_on_matrices():
    rng = np.random.default_rng(54)
    space = full_space(2, 2)
    eye = np.eye(2)
    for _ in range(10):
        c1 = random_matrix(rng, 2, 2)
        z1 = random_matrix(rng, 2, 2)
        dom1 = Domain(space, c1, eye - c1 @ z1, z1)
        r = random_matrix(rng, 2, 2) + 2 * eye
        z2 = random_matrix(rng, 2, 2)
        c2 = c1 @ r
        dom2 = Domain(space, c2, eye - c2 @ z2, z2)
        eq = affine_equivalence(dom1, dom2, r, z1, z2)
        assert operator_norm(eq(z1) - z2) <= 1e-10 * (1 + operator_norm(z2))
        z = random_domain_member(rng, dom1, margin=0.05)
        assert eq.certificate_residual(z) <= 1e-9 * (1 + operator_norm(z))
        assert dom2.membership(eq(z)) is Verdict.MEMBER


def test_affine_equivalence_solves_nothing_after_the_membership_checks(monkeypatch):
    # (c1 z1 + d1)^-1 comes from z1's membership check, and every certificate
    # reuses the stored right factor (c1 z1 + d1)^-1 (c2 z2 + d2)
    calls = []
    solve = np.linalg.solve

    def counting_solve(a, b):
        calls.append(None)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    rng = np.random.default_rng(55)
    space = full_space(2, 2)
    eye = np.eye(2)
    c1 = random_matrix(rng, 2, 2)
    z1 = random_matrix(rng, 2, 2)
    dom1 = Domain(space, c1, eye - c1 @ z1, z1)
    r = random_matrix(rng, 2, 2) + 2 * eye
    z2 = random_matrix(rng, 2, 2)
    dom2 = Domain(space, c1 @ r, eye - c1 @ r @ z2, z2)
    probes = [random_domain_member(rng, dom1, margin=0.05) for _ in range(10)]
    calls.clear()
    eq = affine_equivalence(dom1, dom2, r, z1, z2)
    for z in probes:
        assert eq.certificate_residual(z) <= 1e-9 * (1 + operator_norm(z))
    assert calls == []


def test_affine_equivalence_validates_inputs():
    dom1 = scalar_domain(2.0, 0.5, 0.25)
    dom2 = scalar_domain(6.0, 0.25, 0.125)
    with pytest.raises(SingularMatrixError):
        affine_equivalence(dom1, dom2, np.array([[0.0]]), dom1.z0, dom2.z0)
    with pytest.raises(HypothesisError):
        affine_equivalence(dom1, dom2, np.array([[2.0]]), dom1.z0, dom2.z0)
    full_dom = invertibles_domain(full_space(2, 2))
    diag_dom = invertibles_domain(diagonal_space(2))
    with pytest.raises(HypothesisError):
        affine_equivalence(full_dom, diag_dom, np.eye(2), full_dom.z0, diag_dom.z0)


# ---------------------------------------------------------------------------
# Stacks of transports, swaps, folds, midpoints and direct values


def same_bits(stacked, alone):
    assert np.asarray(stacked).tobytes() == np.asarray(alone).tobytes()


@pytest.mark.parametrize("shape", [(2, 2), (3, 1), (1, 3), (8, 8)], ids=str)
def test_stacked_constructions_and_evaluations_keep_the_bits_of_each_item(shape):
    rng = np.random.default_rng(81)
    for dom in example_domains(RunConfig(dim_k=shape[0], dim_h=shape[1])):
        w0 = np.stack([random_target_in_reach(rng, dom) for _ in range(3)])
        y, z = (sample_members(rng, dom, 3, margin=0.05) for _ in range(2))
        phi = affine_transport(dom, w0)
        residuals = affine_transport_identity_residual(dom, phi, z)
        v = swap_involution(dom, w0)
        swapped, flagged = v(z)
        lft = v.as_lft()
        fold = compose_symmetries_affine(dom, z, y)
        direct, singular = symmetry_direct(dom, y, z)
        assert not flagged.any() and not singular.any()
        for i in range(3):
            phi_i = affine_transport(dom, w0[i])
            for part in ("offset", "left", "right"):
                same_bits(getattr(phi, part)[i], getattr(phi_i, part))
            same_bits(phi(z)[i], phi_i(z[i]))
            assert residuals[i] == affine_transport_identity_residual(dom, phi_i, z[i])
            v_i = swap_involution(dom, w0[i])
            for part in ("w0", "gl", "gr"):
                same_bits(getattr(v, part)[i], getattr(v_i, part))
            same_bits(swapped[i], v_i(z[i]))
            for block in "abcd":
                same_bits(getattr(lft, block)[i], getattr(v_i.as_lft(), block))
            fold_i = compose_symmetries_affine(dom, z[i], y[i])
            for part in ("base", "offset", "left", "right"):
                same_bits(getattr(fold, part)[i], getattr(fold_i, part))
            same_bits(fold(z)[i], fold_i(z[i]))
            same_bits(direct[i], symmetry_direct(dom, y[i], z[i]))
        # a midpoint needs ||x (w - z)|| < 1: the end points are pulled towards z
        w = z + 0.2 * (y - z) / np.maximum(1.0, operator_norm(dom.kernel_at(z) @ (y - z)))[:, None, None]
        midpoints = find_midpoint(dom, z, w)
        for i in range(3):
            same_bits(midpoints[i], find_midpoint(dom, z[i], w[i]))
    # a stacked evaluation flags a point where c z + d is singular, which one call raises
    dom = invertibles_domain(full_space(2, 2))
    z = np.stack([np.eye(2), np.diag([1.0, 0.0])]).astype(complex)
    values, singular = symmetry_direct(dom, dom.z0, z)
    images, flagged = swap_involution(dom, dom.z0)(z)
    assert singular.tolist() == flagged.tolist() == [False, True]
    assert np.isnan(values[1]).all() and np.isnan(images[1]).all()
    for evaluate in (lambda p: symmetry_direct(dom, dom.z0, p), swap_involution(dom, dom.z0)):
        same_bits(evaluate(z)[0][0], evaluate(z[0]))
        with pytest.raises(SingularMatrixError, match="c z \\+ d is singular"):
            evaluate(z[1])


def test_stacked_margins_are_the_margins_of_each_item():
    rng = np.random.default_rng(82)
    e = np.diag([1.0, 0.0]).astype(complex)
    j = signature_from_projection(e)
    z = np.stack([sample_pg_members(rng, e, 1)[0] for _ in range(4)])
    assert ball_margin(z).tolist() == [ball_margin(item) for item in z]
    assert form_margin(z, j).tolist() == [form_margin(item, j) for item in z]


def test_a_stack_of_transports_raises_the_first_item_its_first_failing_check_flags():
    # on the scalar invertibles at eq_tol 0.9 the targets 3 and 5 break the
    # pull bound ||x0 (w0 - z0)|| < 1, which is checked first, and the target
    # 0.5 puts I + (w0 - z0) x0 on the square root's cut
    dom = scalar_domain(1.0, 0.0, 1.0)
    dom = Domain(dom.space, dom.c, dom.d, dom.z0, Tolerance(0.9))
    targets = {"ok": 1.2, "step": 3.0, "far": 5.0, "cut": 0.5}
    cut = (
        "matrix has an eigenvalue on the closed negative real axis; "
        "the principal square root is not defined there"
    )
    alone = {
        "step": (StepBoundError, "transport requires ||x0 (w0 - z0)|| < 1; got 2"),
        "far": (StepBoundError, "transport requires ||x0 (w0 - z0)|| < 1; got 4"),
        "cut": (SpectrumError, cut),
    }
    for build in (affine_transport, swap_involution):
        for name, (kind, message) in alone.items():
            with pytest.raises(kind) as exc:
                build(dom, np.array([[targets[name]]]))
            assert str(exc.value) == message
        for order in (["ok", "cut", "step"], ["cut", "far", "step"], ["ok", "step", "far"], ["ok", "cut"]):
            flagged = [i for i, t in enumerate(order) if t in ("step", "far")]
            flagged = flagged or [i for i, t in enumerate(order) if t == "cut"]
            kind, message = alone[order[flagged[0]]]
            with pytest.raises(kind) as exc:
                build(dom, np.array([[[targets[t]]] for t in order]))
            assert str(exc.value) == message, order
            if kind is SpectrumError:
                assert exc.value.index == flagged[0], order


# ---------------------------------------------------------------------------
# Potapov-Ginzburg transform


def test_potapov_ginzburg_blocks_for_the_half_projection():
    e = np.diag([1.0, 0.0]).astype(complex)
    u = potapov_ginzburg_map(e)
    assert np.allclose(u.a, e - np.eye(2))
    assert np.allclose(u.b, e)
    assert np.allclose(u.c, e)
    assert np.allclose(u.d, np.eye(2) - e)
    m = u.coefficient_matrix()
    assert operator_norm(m @ m - np.eye(4)) <= 1e-14


def test_potapov_ginzburg_extreme_projections():
    rng = np.random.default_rng(55)
    z = 0.5 * random_matrix(rng, 2, 2)
    u_zero = potapov_ginzburg_map(np.zeros((2, 2)))
    assert operator_norm(u_zero(z) + z) <= 1e-12
    u_one = potapov_ginzburg_map(np.eye(2))
    zi = z + 2 * np.eye(2)
    assert operator_norm(u_one(zi) - np.linalg.inv(zi)) <= 1e-10


def test_potapov_ginzburg_rejects_non_projections():
    with pytest.raises(ValueError):
        potapov_ginzburg_map(np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_potapov_ginzburg_exchanges_form_set_and_ball():
    rng = np.random.default_rng(56)
    for e in (np.zeros((2, 2)), np.diag([1.0, 0.0]), np.eye(2)):
        e = e.astype(complex)
        u = potapov_ginzburg_map(e)
        j = signature_from_projection(e)
        for _ in range(20):
            z = sample_pg_members(rng, e, 1)[0]
            assert form_margin(z, j) > 0
            image = u(z)
            assert ball_margin(image) > 0
            assert operator_norm(u(image) - z) <= 1e-9 * (1 + operator_norm(z))


def test_signed_contraction_sampler_validates_its_signature_once(monkeypatch):
    import lftdom.automorphisms

    scans = []
    as_cmatrix = lftdom.automorphisms.as_cmatrix

    def counting_as_cmatrix(*args, **kwargs):
        scans.append(None)
        return as_cmatrix(*args, **kwargs)

    monkeypatch.setattr(lftdom.automorphisms, "as_cmatrix", counting_as_cmatrix)
    rng = np.random.default_rng(57)
    for _ in range(10):
        scans.clear()
        sample_pg_members(rng, np.diag([1.0, 0.0]).astype(complex), 1)
        # building j scans e; the proposals are drawn finite and not scanned
        assert len(scans) == 1


# ---------------------------------------------------------------------------
# The entire curve through two points


def test_liouville_scalar_curve_is_a_power():
    dom = scalar_invertibles()
    f = liouville_curve(dom, np.array([[1.5]]))
    assert abs(f(0)[0, 0] - 1.0) <= 1e-12
    assert abs(f(1)[0, 0] - 1.5) <= 1e-10
    assert abs(f(2)[0, 0] - 2.25) <= 1e-10
    assert abs(f(-1)[0, 0] - 2.0 / 3.0) <= 1e-10
    lam = 0.75 + 0.5j
    assert abs(f(lam)[0, 0] - 1.5 ** complex(lam)) <= 1e-10


def test_liouville_endpoint_and_identity_on_matrices():
    rng = np.random.default_rng(57)
    dom = invertibles_domain(full_space(2, 2))
    for _ in range(5):
        z = random_target_in_reach(rng, dom)
        f = liouville_curve(dom, z)
        assert operator_norm(f(0) - dom.z0) <= 1e-8
        assert operator_norm(f(1) - z) <= 1e-8
        for lam in (2.0, -1.5, 0.5 + 1j, -0.25 - 0.75j):
            assert dom.membership(f(lam)) is Verdict.MEMBER
            values, factors = f.evaluate([lam, -lam])
            assert f.identity_residuals(values[:1], factors[:1])[0] <= 1e-8
            prod = factors[0] @ factors[1]
            assert operator_norm(prod - np.eye(2)) <= 1e-9


def test_liouville_requires_a_contractive_displacement():
    dom = scalar_invertibles()
    with pytest.raises(StepBoundError):
        liouville_curve(dom, np.array([[2.5]]))
    f = liouville_curve(dom, np.array([[1.99995]]))
    with pytest.raises(ConvergenceError):
        # |w| = 0.99995 needs far more terms than the series cap allows
        f(0.5)
    f = liouville_curve(dom, np.array([[1.5]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the series can never stop here, so no term is summed
        for lam in (np.nan, np.inf):
            with pytest.raises(ConvergenceError):
                f(lam)


def test_a_curve_with_zero_displacement_stops_after_one_term():
    # at ||w|| = 0 every term after w^0 is exactly zero; the sum once ran
    # |lam| one-term blocks and raised ConvergenceError from about lam = 5000
    whole = whole_space_domain(full_space(2, 2))
    z = np.array([[1.0, 0.5], [-2.0, 3.0]], dtype=complex)
    dom = invertibles_domain(full_space(2, 2))
    line, point = liouville_curve(whole, z), liouville_curve(dom, dom.z0)
    assert line.table.norm == 0.0 and point.table.norm == 0.0
    lams = (0.5, 3.0, 1000.0, 5000.0, -7500.25, 1e4, complex(2500.0, -9000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in lams:
            # f(lam) = z0 + lam (z - z0), here lam z
            assert np.array_equal(line(lam), complex(lam) * z)
            assert np.array_equal(point(lam), dom.z0)
        values, factors = line.evaluate(lams)
    assert np.array_equal(values, np.array(lams, dtype=complex)[:, None, None] * z)
    assert np.array_equal(factors, [np.eye(2)] * len(lams))


def test_liouville_value_takes_one_exponent():
    # a stack of exponents goes to evaluate; a call once summed only the first
    f = liouville_curve(scalar_invertibles(), np.array([[1.5]]))
    for lams in (np.array([0.5, 2.0]), [0.5], np.zeros((1, 1))):
        with pytest.raises(ShapeError, match="evaluate"):
            f(lams)
    assert np.array_equal(f(np.complex128(0.5)), f.evaluate([0.5])[0][0])


def test_liouville_values_match_pointwise_calls():
    rng = np.random.default_rng(58)
    grid = _lambda_grid()
    for dom in example_domains(RunConfig()):
        z = random_target_in_reach(rng, dom)
        f = liouville_curve(dom, z)
        values, factors = f.evaluate(grid)
        assert values.shape == (len(grid), dom.dim_k, dom.dim_h)
        for lam, value, factor in zip(grid, values, factors):
            want = f(lam)
            assert operator_norm(value - want) <= 1e-13 * operator_norm(want)
            want = binomial_series(lam, f.w)
            assert operator_norm(factor - want) <= 1e-13 * operator_norm(want)
        identity = f.identity_residuals(values, factors)
        assert identity.shape == (len(grid),)
        assert identity.max() <= 1e-8
        assert f.identity_residuals(*f.evaluate([grid[-1]]))[0] <= 1e-8


def test_liouville_series_factors_match_the_matrix_power():
    # independent of the series: (I + w)^lam = expm(lam logm(I + w))
    rng = np.random.default_rng(59)
    grid = _lambda_grid()
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 5))
        w = random_matrix(rng, n, n)
        w *= rng.uniform(0.05, 0.8) / operator_norm(w)
        eye = np.eye(n, dtype=complex)
        f = liouville_curve(invertibles_domain(full_space(n, n)), eye + w)
        log = scipy.linalg.logm(eye + w)
        for lam, factor in zip(grid, f.evaluate(grid)[1]):
            want = scipy.linalg.expm(lam * log)
            worst = max(worst, operator_norm(factor - want) / operator_norm(want))
    assert worst <= 1e-10


def test_liouville_curve_sums_its_table_bit_for_bit():
    # the curve builds its powers of w once; every value must be the bits of
    # the one-shot series, whatever was evaluated before it
    rng = np.random.default_rng(60)
    n = 3
    w = random_matrix(rng, n, n)
    w *= 0.9 / operator_norm(w)
    eye = np.eye(n, dtype=complex)
    dom = invertibles_domain(full_space(n, n))
    size = len(liouville_curve(dom, eye + w).table.powers) - 1
    assert size == SERIES_BLOCK_CAP
    short, long = 0.7 - 0.4j, 1.05 * size * np.exp(0.3j)  # one block; several blocks

    def oracle(f, lam):
        return dom.z0 + (f.z - dom.z0) @ binomial_series_shifted(lam, f.w)

    first = liouville_curve(dom, eye + w)
    table = first.table
    powers = table.powers
    before = [a.copy() for a in (powers, table.steps, table.decay)]

    def unchanged():
        after = (powers, table.steps, table.decay)
        return all(not a.flags.writeable and np.array_equal(a, b) for a, b in zip(after, before))

    assert unchanged()
    assert np.array_equal(table.steps, np.arange(1, size + 1))
    assert np.array_equal(table.decay, table.norm ** np.arange(1, size + 1.0))
    got = [first(short), first(long), first(short), first(long)]
    assert unchanged()
    other = liouville_curve(dom, eye + w)
    got_reversed = [other(long), other(short)]
    for lam, value in zip([short, long, short, long], got):
        assert np.array_equal(value, oracle(first, lam))
    assert np.array_equal(got_reversed[0], got[1]) and np.array_equal(got_reversed[1], got[0])

    grid = np.concatenate([_lambda_grid(), [short, long]])
    values, factors = first.evaluate(grid)
    full, shifted = binomial_series_grid(grid, first.w)
    assert np.array_equal(factors, full)
    assert np.array_equal(values, dom.z0 + (first.z - dom.z0) @ shifted)
    assert unchanged()
