"""Tests for the circular domains: Siegel, exterior, ball, product, hyperbolic."""

import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from lftdom import circular, linalg, verify
from lftdom import (
    DEFAULT_TOL,
    HyperbolicSpec,
    HypothesisError,
    OperatorSpace,
    RunConfig,
    ShapeError,
    SiegelSpec,
    SingularMatrixError,
    SpaceClosureError,
    SpaceLinearMap,
    SpectrumError,
    Tolerance,
    cayley_map,
    diagonal_space,
    exterior_member,
    full_space,
    hyperbolic_member,
    hyperbolic_transitive,
    mobius_direct,
    mobius_map,
    operator_norm,
    principal_sqrt,
    product_member,
    product_split,
    product_transitive,
    siegel_gram,
    siegel_invariant_residual,
    siegel_linear_auto,
    siegel_member,
)
from lftdom.sampling import (
    random_ball_point,
    random_hyperbolic_form,
    random_hyperbolic_member,
    random_matrix,
    random_product_member,
    random_siegel_member,
    random_unitary,
)
from lftdom.verify import isometry_identity_residuals


def random_j_unitary(rng, spec, scale=0.4):
    """exp of a J-skew generator: exactly J-unitary up to matrix-exponential accuracy."""
    n = spec.dim_k + spec.dim_h
    a = random_matrix(rng, n, n)
    j = spec.j
    k = a - j @ a.conj().T @ j
    k *= scale / (1.0 + operator_norm(k))
    return scipy.linalg.expm(k)


def axis_point(spec, r):
    return spec.stack(
        np.zeros((spec.dim_k, spec.dim_h), dtype=complex),
        r * np.eye(spec.dim_h, dtype=complex),
    )


# ---------------------------------------------------------------------------
# Siegel-type domain


def test_siegel_split_stack_round_trip():
    rng = np.random.default_rng(61)
    spec = SiegelSpec(2, 3)
    z = random_matrix(rng, 5, 3)
    z1, z2 = spec.split(z)
    assert z1.shape == (2, 3) and z2.shape == (3, 3)
    assert np.array_equal(spec.stack(z1, z2), z)
    assert np.allclose(spec.j, np.diag([1, 1, -1, -1, -1]))


def test_siegel_membership_on_the_axis():
    spec = SiegelSpec(2, 2)
    assert siegel_member(spec, axis_point(spec, 1.5))
    assert not siegel_member(spec, axis_point(spec, 0.9))
    assert not siegel_member(spec, axis_point(spec, 1.0))
    gram = siegel_gram(spec, axis_point(spec, 1.5))
    assert operator_norm(gram - (1 - 1.5**2) * np.eye(2)) <= 1e-12


def test_siegel_linear_auto_preserves_membership():
    rng = np.random.default_rng(62)
    spec = SiegelSpec(2, 2)
    for _ in range(10):
        auto = siegel_linear_auto(spec, random_j_unitary(rng, spec), random_unitary(rng, 2))
        z = random_siegel_member(rng, spec)
        image = auto(z)
        assert siegel_member(spec, image)
        assert operator_norm(auto.inverse(image) - z) <= 1e-9 * (1 + operator_norm(z))
        assert siegel_invariant_residual(spec, auto, 1.5) <= 1e-8


def test_siegel_linear_auto_rejects_bad_factors():
    spec = SiegelSpec(1, 1)
    eye = np.eye(2)
    with pytest.raises(HypothesisError, match="J-unitary"):
        siegel_linear_auto(spec, 2 * eye, np.eye(1))
    with pytest.raises(HypothesisError, match="unitary"):
        siegel_linear_auto(spec, eye, 2 * np.eye(1))
    singular = np.diag([1.0, 0.0])
    with pytest.raises((HypothesisError, SingularMatrixError)):
        siegel_linear_auto(spec, singular, np.eye(1))


def test_cayley_map_is_its_own_inverse():
    rng = np.random.default_rng(63)
    spec = SiegelSpec(2, 2)
    for _ in range(10):
        z = random_siegel_member(rng, spec)
        back = cayley_map(spec, cayley_map(spec, z))
        assert operator_norm(back - z) <= 1e-10 * (1 + operator_norm(z))


def test_cayley_map_bridges_to_the_ball():
    rng = np.random.default_rng(64)
    spec = SiegelSpec(2, 2)
    for _ in range(10):
        z = random_siegel_member(rng, spec)
        assert operator_norm(cayley_map(spec, z)) < 1.0
    # a stacked point outside the domain with invertible bottom maps outside the ball
    z1 = 2 * np.eye(2, dtype=complex)
    z2 = np.eye(2, dtype=complex)
    outside = spec.stack(z1, z2)
    assert not siegel_member(spec, outside)
    assert operator_norm(cayley_map(spec, outside)) >= 1.0


def test_cayley_map_needs_invertible_bottom_block():
    spec = SiegelSpec(1, 1)
    with pytest.raises(SingularMatrixError):
        cayley_map(spec, np.array([[1.0], [0.0]]))


# ---------------------------------------------------------------------------
# Exterior domain and the inverse identity of isometries


def test_exterior_member_thresholds():
    space = full_space(2, 2)
    assert exterior_member(space, 2 * np.eye(2))
    assert not exterior_member(space, 0.5 * np.eye(2))
    assert not exterior_member(space, np.diag([3.0, 1.0]))
    with pytest.raises(ShapeError):
        exterior_member(full_space(2, 3), np.ones((2, 3)))
    with pytest.raises(SpaceClosureError):
        exterior_member(diagonal_space(2), np.array([[2.0, 1.0], [0.0, 2.0]]))


def test_space_linear_map_validation():
    space = full_space(2, 2)
    with pytest.raises(ShapeError):
        SpaceLinearMap(space, [np.eye(2)])
    with pytest.raises(SpaceClosureError):
        SpaceLinearMap(diagonal_space(2), [np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    collapse = [space.basis[0]] * 4
    with pytest.raises(SingularMatrixError):
        SpaceLinearMap(space, collapse)


def test_space_linear_map_judges_invertibility_with_its_tolerance():
    # the coordinate matrix is diag(1, 1, 1, 1e-12): singular at the default
    # inv_tol of 1e-10, regular at Tolerance(1e-13), whose inv_tol is 1e-14
    space = full_space(2, 2)
    images = [*space.basis[:3], 1e-12 * space.basis[3]]
    with pytest.raises(SingularMatrixError):
        SpaceLinearMap(space, images)
    lmap = SpaceLinearMap(space, images, Tolerance(1e-13))
    assert np.array_equal(lmap.matrix, np.diag([1.0, 1.0, 1.0, 1e-12]))


def test_inverse_identity_for_sandwich_isometries():
    rng = np.random.default_rng(65)
    space = full_space(3, 3)
    p = random_unitary(rng, 3)
    q = random_unitary(rng, 3)
    images = [p @ b @ q for b in space.basis]
    unitary_defect, residuals = isometry_identity_residuals(space, images, rng, 50, DEFAULT_TOL)
    assert residuals.shape == (50,)
    assert residuals.max() <= 1e-10
    assert unitary_defect <= 1e-9
    assert operator_norm(SpaceLinearMap(space, images)(np.eye(3)) - p @ q) <= 1e-10


def test_inverse_identity_for_the_transpose():
    rng = np.random.default_rng(66)
    space = full_space(3, 3)
    images = [b.T for b in space.basis]
    _, residuals = isometry_identity_residuals(space, images, rng, 50, DEFAULT_TOL)
    assert residuals.max() <= 1e-10
    assert operator_norm(SpaceLinearMap(space, images)(np.eye(3)) - np.eye(3)) <= 1e-12


def test_inverse_identity_rejects_non_isometries():
    rng = np.random.default_rng(67)
    space = full_space(2, 2)
    images = [2 * b for b in space.basis]
    with pytest.raises(HypothesisError, match="not an isometry"):
        isometry_identity_residuals(space, images, rng, 10, DEFAULT_TOL)
    with pytest.raises(ShapeError):
        isometry_identity_residuals(full_space(2, 3), full_space(2, 3).basis, rng, 10, DEFAULT_TOL)
    # strictly upper triangular matrices: a square space without I
    nilpotent = OperatorSpace(2, 2, [np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(SpaceClosureError, match="identity"):
        isometry_identity_residuals(nilpotent, nilpotent.basis, rng, 10, DEFAULT_TOL)


def test_inverse_identity_requires_invertible_unit_image():
    rng = np.random.default_rng(68)
    space = full_space(2, 2)
    e11, e12, e21, e22 = space.basis
    # swap E11 and E12: invertible on the space, but L(I) = E12 + E22 is singular
    images = [e12, e11, e21, e22]
    with pytest.raises(SingularMatrixError, match="L\\(I\\) is singular"):
        isometry_identity_residuals(space, images, rng, 0, DEFAULT_TOL)


def test_exterior_auto_check_with_unitary_sandwich():
    # the exterior-isometry row: per map, trials identity residuals, the
    # unitary defect, and two checks on each of trials exterior members
    track = verify._Tracker()
    assert verify.suite_exterior(RunConfig(trials=50), np.random.default_rng(69), track) == 100
    assert track.ok
    assert track.count == 2 * (50 + 1 + 2 * 50)


def test_exterior_row_stops_after_its_attempt_cap(monkeypatch):
    # no proposal is exterior: the row gives up after 50 * trials attempts
    monkeypatch.setattr(verify, "exterior_member", lambda space, z, tol: False)
    index = [name for name, _, _ in verify.SUITES].index("exterior-isometry")
    row = verify.suite_row(RunConfig(trials=3), index)
    assert row["anchor"] == (
        "suite aborted: InternalCheckError: could not sample enough exterior members"
        " (in suite_exterior, verify.py)"
    )


# ---------------------------------------------------------------------------
# Mobius maps of the unit ball


def test_mobius_scalar_oracle():
    b = np.array([[0.5]], dtype=complex)
    t = mobius_map(b)
    assert abs(t(np.zeros((1, 1)))[0, 0] - 0.5) <= 1e-14
    assert abs(t(-b)[0, 0]) <= 1e-14
    assert abs(t(np.array([[0.8]]))[0, 0] - 1.3 / 1.4) <= 1e-12


def test_mobius_scalar_matches_classical_formula():
    rng = np.random.default_rng(70)
    for _ in range(20):
        b = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.5
        z = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.6
        bm = np.array([[b]])
        zm = np.array([[z]])
        expected = (z + b) / (1 + np.conj(b) * z)
        assert abs(mobius_direct(bm, zm)[0, 0] - expected) <= 1e-12


def test_mobius_rectangular_properties():
    rng = np.random.default_rng(71)
    for _ in range(10):
        b = random_ball_point(rng, 2, 1, max_norm=0.85)
        t = mobius_map(b)
        assert operator_norm(t(np.zeros((2, 1))) - b) <= 1e-10
        assert operator_norm(t(-b)) <= 1e-12
        z = random_ball_point(rng, 2, 1, max_norm=0.95)
        image = t(z)
        assert operator_norm(image) < 1.0
        back = mobius_map(-b)
        assert operator_norm(back(image) - z) <= 1e-8
        assert operator_norm(mobius_direct(b, z) - image) <= 1e-10


def test_mobius_coefficients_are_j_unitary():
    rng = np.random.default_rng(72)
    for shape in ((1, 1), (2, 1), (2, 2)):
        b = random_ball_point(rng, *shape, max_norm=0.8)
        m = mobius_map(b).coefficient_matrix()
        j = SiegelSpec(*shape).j
        assert operator_norm(m.conj().T @ j @ m - j) <= 1e-10


def test_mobius_rejects_contraction_violations():
    with pytest.raises(HypothesisError):
        mobius_map(np.array([[1.0]]))
    with pytest.raises(HypothesisError):
        mobius_map(np.array([[1.5, 0.0], [0.0, 0.5]]))


def test_mobius_direct_rejects_parameters_outside_the_ball():
    z = np.zeros((2, 2), dtype=complex)
    for b in (np.array([[1.5, 0.0], [0.0, 0.5]]), np.eye(2), np.array([[0.0, 1.0, 0.0]])):
        with pytest.raises(HypothesisError, match=r"mobius parameter needs \|\|b\|\| < 1"):
            mobius_direct(b, np.zeros(b.shape))
    # inside the ball but within eq_tol of the cut, where principal_sqrt
    # refuses I - b b* too
    for b, tol in (
        (np.diag([1.0 - 1e-11, 0.5]), Tolerance()),
        (np.diag([0.9996, 0.0]), Tolerance(1e-3)),
    ):
        with pytest.raises(SpectrumError):
            mobius_direct(b, z, tol)
        with pytest.raises(SpectrumError):
            principal_sqrt(np.eye(2) - b @ b.conj().T, tol)
    assert operator_norm(mobius_direct(np.diag([0.9996, 0.0]), z) - np.diag([0.9996, 0.0])) <= 1e-12


def test_mobius_direct_matches_forty_digit_arithmetic():
    import mpmath as mp

    rng = np.random.default_rng(73)

    def reference(b, z):
        with mp.workdps(40):
            bm, zm = mp.matrix(b.tolist()), mp.matrix(z.tolist())
            k, h = b.shape
            left = mp.inverse(mp.sqrtm(mp.eye(k) - bm * bm.H))
            right = mp.sqrtm(mp.eye(h) - bm.H * bm)
            value = left * (zm + bm) * mp.inverse(mp.eye(h) + bm.H * zm) * right
            return np.array(value.tolist(), dtype=complex), float(mp.mnorm(value, "f"))

    worst = 0.0
    for shape in ((1, 1), (2, 2), (2, 3), (3, 2), (1, 3), (4, 4)):
        for norm_b in (0.5, 0.9, 0.999):
            b = random_matrix(rng, *shape)
            b *= norm_b / operator_norm(b)
            z = random_ball_point(rng, *shape, max_norm=0.9)
            want, size = reference(b, z)
            worst = max(worst, np.linalg.norm(mobius_direct(b, z) - want) / size)
    assert worst <= 1e-13
    # k > h: (I - b b*)^(-1/2) has root 1 on the padded sigma = 0 directions,
    # orthogonal to the range of b, so there T_b(z) = z (1 - ||b||^2)^(1/2)
    b = np.array([[0.6], [0.0], [0.0]], dtype=complex)
    z = np.array([[0.0], [0.3], [0.2j]], dtype=complex)
    image = mobius_direct(b, z)
    assert np.allclose(image, [[0.6], [0.3 * 0.8], [0.2j * 0.8]], rtol=0, atol=1e-15)


def test_mobius_values_keep_the_bits_of_the_frozen_formula():
    # the formulas as they stood with the zero padding written into ones;
    # tobytes compares the sign of every zero
    def frozen(b, z):
        u, s, vh = np.linalg.svd(b)
        gap = (1.0 - s) * (1.0 + s)
        k, h = b.shape
        left = np.ones(k)
        left[: s.size] = 1.0 / np.sqrt(gap)
        right = np.ones(h)
        right[: s.size] = np.sqrt(gap)
        left, right = (u * left) @ linalg.dagger(u), (linalg.dagger(vh) * right) @ vh
        den_inv = linalg.invert(np.eye(h, dtype=complex) + b.conj().T @ z, linalg.DEFAULT_TOL, "")
        return left, right, left @ (z + b) @ den_inv @ right

    rng = np.random.default_rng(24)
    for shape in ((1, 1), (2, 2), (3, 2), (2, 3), (3, 1), (1, 3), (4, 4)):
        for norm_b in (0.0, 0.3, 0.6, 0.9):
            for norm_z in (0.0, 0.3, 0.8):
                b = random_matrix(rng, *shape)
                b *= norm_b / operator_norm(b)
                z = random_matrix(rng, *shape)
                z *= norm_z / operator_norm(z)
                # real and diagonal parameters give exact zeros in the products
                cases = [(b, z), (b.real.astype(complex), -z)]
                if shape[0] == shape[1]:
                    cases.append((np.diag(np.diag(b)), z))
                for param, point in cases:
                    left, right, value = frozen(param, point)
                    _, got_left, got_right = linalg.ball_roots(param)
                    assert got_left.tobytes() == left.tobytes() and got_right.tobytes() == right.tobytes()
                    assert mobius_direct(param, point).tobytes() == value.tobytes(), (shape, norm_b, norm_z)


def test_mobius_direct_takes_no_principal_square_root(monkeypatch):
    # the two evaluation routes stay independent: mobius_direct takes its
    # roots from an SVD, mobius_map from principal_sqrt (Schur-based sqrtm)
    def refuse(*args, **kwargs):
        raise AssertionError("principal square root taken")

    for holder in (linalg, circular):
        monkeypatch.setattr(holder, "principal_sqrt", refuse)
    monkeypatch.setattr(scipy.linalg, "sqrtm", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    rng = np.random.default_rng(74)
    for shape in ((1, 1), (2, 2), (3, 2)):
        b = random_ball_point(rng, *shape, max_norm=0.9)
        z = random_ball_point(rng, *shape, max_norm=0.9)
        assert np.isfinite(mobius_direct(b, z)).all()
        with pytest.raises(AssertionError, match="principal square root taken"):
            mobius_map(b)


# ---------------------------------------------------------------------------
# Product-type domain


def test_product_membership_differs_from_siegel():
    spec = SiegelSpec(1, 1)
    z = np.array([[0.5], [0.9]], dtype=complex)
    assert product_member(spec, z)
    assert not siegel_member(spec, z)
    assert not product_member(spec, np.array([[0.9], [0.5]]))
    assert not product_member(spec, np.array([[0.5], [0.0]]))


def test_product_split_yields_ball_point_and_invertible():
    rng = np.random.default_rng(73)
    spec = SiegelSpec(2, 2)
    for _ in range(10):
        z = random_product_member(rng, spec)
        ball, inv = product_split(spec, z)
        assert operator_norm(ball) < 1.0
        z1, z2 = spec.split(z)
        assert operator_norm(inv @ z2 - np.eye(2)) <= 1e-9


def test_product_transport_scalar_oracle():
    spec = SiegelSpec(1, 1)
    w = np.array([[0.5], [2.0]], dtype=complex)
    t = product_transitive(spec, w)
    assert abs(t.b[0, 0] - 0.25) <= 1e-14
    assert abs(t.r[0, 0] - np.sqrt(1 - 0.0625) * 2.0) <= 1e-12
    assert operator_norm(t(axis_point(spec, 1.0)) - w) <= 1e-12


def test_product_transport_properties():
    rng = np.random.default_rng(74)
    spec = SiegelSpec(2, 2)
    j = spec.j
    base = axis_point(spec, 1.0)
    for _ in range(10):
        w = random_product_member(rng, spec)
        t = product_transitive(spec, w)
        assert operator_norm(t(base) - w) <= 1e-10 * (1 + operator_norm(w))
        assert operator_norm(t.m.conj().T @ j @ t.m - j) <= 1e-10
        z = random_product_member(rng, spec)
        image = t(z)
        assert product_member(spec, image)
        assert operator_norm(t.inverse(image) - z) <= 1e-9 * (1 + operator_norm(z))


def test_product_transport_rejects_outsiders():
    spec = SiegelSpec(1, 1)
    with pytest.raises(HypothesisError, match="w is not a member"):
        product_transitive(spec, np.array([[2.0], [0.5]]))
    with pytest.raises(HypothesisError, match="w is not a member"):
        product_transitive(spec, np.array([[0.0], [0.0]]))


def test_product_transport_inverts_the_bottom_block_once(monkeypatch):
    spec = SiegelSpec(2, 2)
    w = random_product_member(np.random.default_rng(81), spec)
    w2 = spec.split(w)[1]
    inverted = []
    gufuncs = linalg._umath_linalg

    def recording_inv(z, **kwargs):
        inverted.append(np.array(z))
        return gufuncs.inv(z, **kwargs)

    # try_invert inverts on LAPACK's gufunc, not through np.linalg.inv
    monkeypatch.setattr(linalg, "_umath_linalg", SimpleNamespace(svd=gufuncs.svd, inv=recording_inv))
    product_transitive(spec, w)
    assert sum(np.array_equal(z, w2) for z in inverted) == 1


@pytest.mark.parametrize("dims", [(2, 2), (3, 1), (1, 3)])
def test_product_transport_builds_one_ball_automorphism(monkeypatch, dims):
    spec = SiegelSpec(*dims)
    w = random_product_member(np.random.default_rng(82), spec)
    roots = []
    root = circular.principal_sqrt
    monkeypatch.setattr(circular, "principal_sqrt", lambda *args: roots.append(None) or root(*args))
    t = product_transitive(spec, w)
    # two roots for M(b), one for R; M(-b) is M(b) with its off-diagonal blocks negated
    assert len(roots) == 3
    assert np.array_equal(t.m_inv, mobius_map(-t.b, spec.tol).coefficient_matrix())


@pytest.mark.parametrize("dims", [(2, 2), (3, 1), (1, 3), (8, 8)], ids=str)
def test_stacked_ball_product_and_siegel_maps_keep_the_bits_of_each_item(dims):
    def same(stacked, alone):
        assert np.asarray(stacked).tobytes() == np.asarray(alone).tobytes()

    rng = np.random.default_rng(83)
    spec = SiegelSpec(*dims)
    b = np.stack([random_ball_point(rng, *dims, max_norm=0.85) for _ in range(3)])
    z = np.stack([random_ball_point(rng, *dims, max_norm=0.95) for _ in range(3)])
    t = mobius_map(b)
    w, p = (np.stack([random_product_member(rng, spec) for _ in range(3)]) for _ in range(2))
    transport = product_transitive(spec, w)
    l = np.stack([random_j_unitary(rng, spec) for _ in range(3)])
    u = np.stack([random_unitary(rng, spec.dim_h) for _ in range(3)])
    s = np.stack([random_siegel_member(rng, spec) for _ in range(3)])
    auto = siegel_linear_auto(spec, l, u)
    for i in range(3):
        t_i = mobius_map(b[i])
        for block in "abcd":
            same(getattr(t, block)[i], getattr(t_i, block))
        transport_i = product_transitive(spec, w[i])
        for part in ("b", "m", "r", "m_inv", "r_inv"):
            same(getattr(transport, part)[i], getattr(transport_i, part))
        same(transport(p)[i], transport_i(p[i]))
        same(transport.inverse(p)[i], transport_i.inverse(p[i]))
        assert product_member(spec, p)[i] == product_member(spec, p[i])
        for part, part_i in zip(product_split(spec, p), product_split(spec, p[i])):
            same(part[i], part_i)
        auto_i = siegel_linear_auto(spec, l[i], u[i])
        same(auto.l_inv[i], auto_i.l_inv)
        same(auto(s)[i], auto_i(s[i]))
        same(auto.inverse(s)[i], auto_i.inverse(s[i]))
        assert siegel_member(spec, auto(s))[i] == siegel_member(spec, auto_i(s[i]))
        same(siegel_gram(spec, s)[i], siegel_gram(spec, s[i]))
        assert siegel_invariant_residual(spec, auto, 1.5)[i] == siegel_invariant_residual(spec, auto_i, 1.5)
        same(cayley_map(spec, s)[i], cayley_map(spec, s[i]))
    # product membership judges each item of a stack
    outsider = np.concatenate([p[:1], np.zeros((1, *spec.shape))])
    assert product_member(spec, outsider).tolist() == [True, False]


def test_a_stack_of_ball_maps_or_transports_raises_the_first_item_its_first_failing_check_flags():
    # at eq_tol 0.9, b = 2 and 3 leave the ball, which is checked first, and
    # b = 0.5 puts I - b b* = 0.75 on the square root's cut
    tol = Tolerance(0.9)
    cut = (
        "matrix has an eigenvalue on the closed negative real axis; "
        "the principal square root is not defined there"
    )
    alone = {
        "out": (HypothesisError, "mobius parameter needs ||b|| < 1; got 2"),
        "far": (HypothesisError, "mobius parameter needs ||b|| < 1; got 3"),
        "cut": (SpectrumError, cut),
    }
    values = {"ok": 0.1, "out": 2.0, "far": 3.0, "cut": 0.5}
    for name, (kind, message) in alone.items():
        with pytest.raises(kind, match="^" + re.escape(message) + "$"):
            mobius_map(np.array([[values[name]]]), tol)
    for order in (["ok", "cut", "out"], ["cut", "far", "out"], ["ok", "out", "far"], ["ok", "cut"]):
        flagged = [i for i, v in enumerate(order) if v in ("out", "far")]
        flagged = flagged or [i for i, v in enumerate(order) if v == "cut"]
        kind, message = alone[order[flagged[0]]]
        with pytest.raises(kind) as exc:
            mobius_map(np.array([[[values[v]]] for v in order]), tol)
        assert str(exc.value) == message, order
    # a transport checks membership before it takes a root: a non-member
    # anywhere in the stack raises, though an earlier member meets the cut
    spec = SiegelSpec(1, 1, tol)
    member = np.array([[1.0], [2.0]], dtype=complex)
    with pytest.raises(SpectrumError):
        product_transitive(spec, member)
    with pytest.raises(HypothesisError, match="w is not a member"):
        product_transitive(spec, np.stack([member, np.array([[2.0], [0.5]])]))


# ---------------------------------------------------------------------------
# Hyperbolic vector domain


def lorentz_spec():
    j = np.diag([1.0, 1.0, -1.0]).astype(complex)
    return HyperbolicSpec(j)


def split_signature_spec():
    j = np.diag([1.0, -1.0, -1.0]).astype(complex)
    return HyperbolicSpec(j)


def test_hyperbolic_membership_sign():
    spec = lorentz_spec()
    assert hyperbolic_member(spec, np.array([0.0, 0.0, 2.0]))
    assert not hyperbolic_member(spec, np.array([1.0, 0.0, 0.0]))
    assert not hyperbolic_member(spec, np.array([1.0, 0.0, 1.0]))


def test_hyperbolic_transport_axis_oracle():
    spec = lorentz_spec()
    t = hyperbolic_transitive(spec, np.array([0.0, 0.0, 2.0]))
    assert not t.degenerate
    assert abs(t.c - 4.0) <= 1e-12
    assert operator_norm(t.matrix - 2 * np.eye(3)) <= 1e-12
    assert t.endpoint_residual() <= 1e-12
    assert t.certificate_residual() <= 1e-12


def test_hyperbolic_transport_degenerate_oracle():
    spec = split_signature_spec()
    z1 = np.array([0.0, 0.0, 1.0], dtype=complex)
    # z1 lies in the orthocomplement K = span{(0,0,1)}: no e or f component
    t = hyperbolic_transitive(spec, z1)
    assert t.degenerate
    assert abs(t.c - (1.25**2 - 0.75**2)) <= 1e-12
    assert t.endpoint_residual() <= 1e-10
    assert t.certificate_residual() <= 1e-10


def test_hyperbolic_transport_on_random_members():
    rng = np.random.default_rng(75)
    spec = split_signature_spec()
    for i in range(40):
        degenerate = i % 5 == 0
        z1 = random_hyperbolic_member(rng, spec, degenerate=degenerate)
        t = hyperbolic_transitive(spec, z1)
        scale = 1 + np.linalg.norm(z1)
        assert t.endpoint_residual() <= 1e-9 * scale
        assert t.certificate_residual() <= 1e-9 * (1 + operator_norm(t.matrix)) ** 2
        assert t.c > 0
        if degenerate:
            assert t.degenerate
        z = random_hyperbolic_member(rng, spec)
        assert hyperbolic_member(spec, t(z))


def test_hyperbolic_two_dimensional_case():
    j = np.diag([1.0, -1.0]).astype(complex)
    spec = HyperbolicSpec(j)
    z1 = np.array([0.3, 1.0], dtype=complex)
    assert hyperbolic_member(spec, z1)
    t = hyperbolic_transitive(spec, z1)
    assert t.endpoint_residual() <= 1e-10
    assert t.certificate_residual() <= 1e-10
    with pytest.raises(HypothesisError):
        hyperbolic_transitive(spec, np.array([1.0, 0.3]))
    with pytest.raises(ShapeError):
        hyperbolic_transitive(spec, np.array([1.0, 0.0, 0.0]))


def test_hyperbolic_spec_validation():
    with pytest.raises(SpectrumError):
        HyperbolicSpec(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SpectrumError):
        HyperbolicSpec(np.diag([2.0, -1.0]))
    with pytest.raises(SpectrumError):
        HyperbolicSpec(np.diag([1.0, -2.0]))
    with pytest.raises(ShapeError):
        HyperbolicSpec(np.array([[1.0]]))


def test_orthocomplement_basis_is_scipy_null_space_in_bytes_and_layout():
    # K* J K rounds by the memory order of K, so the basis keeps scipy's C order
    rng = np.random.default_rng(78)
    specs = [lorentz_spec(), split_signature_spec()]
    for n in range(2, 7):
        specs += [HyperbolicSpec(random_hyperbolic_form(rng, n)) for _ in range(20)]
        if n > 2:
            specs += [HyperbolicSpec(random_hyperbolic_form(rng, n, degenerate=True)) for _ in range(20)]
    for spec in specs:
        reference = scipy.linalg.null_space(np.stack([spec.e.conj(), spec.f.conj()]))
        assert spec.k_basis.shape == reference.shape == (spec.dim, spec.dim - 2)
        assert spec.k_basis.tobytes() == reference.tobytes()
        assert spec.k_basis.flags.c_contiguous == reference.flags.c_contiguous


def test_hyperbolic_degenerate_sampling_needs_a_negative_direction():
    rng = np.random.default_rng(76)
    # K = span{(1,0,0)} carries the +1 block: no degenerate members exist
    spec = lorentz_spec()
    with pytest.raises(ValueError):
        random_hyperbolic_member(rng, spec, degenerate=True)
    with pytest.raises(ValueError):
        random_hyperbolic_member(rng, HyperbolicSpec(np.diag([1.0, -1.0])), degenerate=True)


# ---------------------------------------------------------------------------
# One tolerance per spec


def test_specs_judge_with_the_tolerance_they_were_built_with():
    # every point below sits inside the 1e-3 / 1e-4 margin of the coarse
    # specs, though well clear of the default thresholds
    coarse = Tolerance(1e-3)
    j = np.diag([1.0, 1.0, -1.0]).astype(complex)
    hyperbolic = HyperbolicSpec(j)
    hyperbolic_coarse = HyperbolicSpec(j, tol=coarse)
    assert hyperbolic_coarse.tol == coarse
    z = np.array([0.0, 0.0, np.sqrt(2e-6)])  # (Jz, z) = -2e-6
    assert hyperbolic_member(hyperbolic, z)
    assert not hyperbolic_member(hyperbolic_coarse, z)
    with pytest.raises(HypothesisError):
        hyperbolic_transitive(hyperbolic_coarse, z)

    siegel, siegel_coarse = SiegelSpec(1, 1), SiegelSpec(1, 1, coarse)
    assert siegel_coarse.tol == coarse
    z = axis_point(siegel, np.sqrt(1.0 + 2e-6))  # Z2*Z2 - Z1*Z1 - I = 2e-6
    assert siegel_member(siegel, z)
    assert not siegel_member(siegel_coarse, z)
    z = np.array([[1.0], [np.sqrt(1.0 + 2e-6)]])  # Z2*Z2 - Z1*Z1 = 2e-6
    assert product_member(siegel, z)
    assert not product_member(siegel_coarse, z)
    with pytest.raises(HypothesisError):
        product_transitive(siegel_coarse, z)

    for smin in (1e-9, 1e-6, 1e-5):  # sigma_min(Z2) in (1e-10, 1e-4)
        z = np.array([[1.0], [smin]])
        cayley_map(siegel, z)
        product_split(siegel, z)
        with pytest.raises(SingularMatrixError):
            cayley_map(siegel_coarse, z)
        with pytest.raises(SingularMatrixError):
            product_split(siegel_coarse, z)
