"""Tests for the dense matrix kernels."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from lftdom import (
    DEFAULT_TOL,
    ConvergenceError,
    ShapeError,
    SingularMatrixError,
    SpectrumError,
    Tolerance,
    as_cmatrix,
    as_cstack,
    binomial_series,
    binomial_series_grid,
    binomial_series_shifted,
    dagger,
    invert,
    operator_norm,
    principal_sqrt,
    singular_test,
    try_invert,
)
from lftdom.linalg import SERIES_TERM_CAP, SERIES_TOL
from lftdom.verify import _lambda_grid


def power_iteration_norm(z, steps=2000):
    """Independent largest-singular-value estimate via power iteration on z*z."""
    g = z.conj().T @ z
    v = np.ones(g.shape[0], dtype=complex)
    v /= np.linalg.norm(v)
    for _ in range(steps):
        v = g @ v
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return 0.0
        v /= nv
    return math.sqrt(abs(np.vdot(v, g @ v)))


def test_tolerance_rejects_negative_values():
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            Tolerance(eq_tol=bad)


def test_as_cmatrix_validates_shape_and_finiteness():
    m = as_cmatrix([[1, 2], [3, 4]])
    assert m.dtype == complex and m.shape == (2, 2)
    with pytest.raises(ShapeError):
        as_cmatrix([1, 2, 3])
    with pytest.raises(ShapeError):
        as_cmatrix([[1, 2]], rows=2)
    with pytest.raises(ShapeError):
        as_cmatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError):
        as_cmatrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_cmatrix([[np.inf]])
    with pytest.raises(ShapeError):
        as_cmatrix(np.zeros((3, 2, 2)))


def test_as_cstack_validates_every_item():
    z = as_cstack(np.ones((3, 2, 4)), rows=2, cols=4)
    assert z.dtype == complex and z.shape == (3, 2, 4)
    assert as_cstack([[1, 2]]).shape == (1, 2)
    with pytest.raises(ShapeError):
        as_cstack([1, 2, 3])
    with pytest.raises(ShapeError):
        as_cstack(np.ones((3, 2, 4)), rows=4)
    with pytest.raises(ShapeError):
        as_cstack(np.ones((3, 0, 4)))
    bad = np.ones((3, 2, 2))
    bad[2, 1, 0] = np.nan
    with pytest.raises(ValueError):
        as_cstack(bad)


def test_finiteness_is_judged_on_both_parts_of_every_entry():
    for bad in (complex(0, np.nan), complex(1, np.inf), complex(0, -np.inf), complex(np.nan, 1)):
        m = np.eye(2, dtype=complex)
        m[1, 0] = bad
        stack = np.ones((3, 2, 2), dtype=complex)
        stack[2, 0, 1] = bad
        for check, data in ((as_cmatrix, m), (as_cstack, m), (as_cstack, stack)):
            with pytest.raises(ValueError):
                check(data)
    for big in (1e308, 1e308j, -1e308 + 1e308j):
        m = np.full((2, 2), big)
        assert np.array_equal(as_cmatrix(m), m)
        assert np.array_equal(as_cstack(np.stack([m, m])), np.stack([m, m]))


def test_dagger_is_conjugate_transpose():
    m = np.array([[1 + 2j, 3], [0, 4 - 1j]], dtype=complex)
    assert np.array_equal(dagger(m), m.conj().T)


def test_operator_norm_matches_power_iteration():
    rng = np.random.default_rng(11)
    for _ in range(25):
        rows, cols = rng.integers(1, 5, size=2)
        z = rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))
        assert abs(operator_norm(z) - power_iteration_norm(z)) <= 1e-8 * (1 + operator_norm(z))


def test_operator_norm_of_known_matrices():
    assert operator_norm(np.zeros((2, 2))) == 0.0
    assert abs(operator_norm(3j * np.eye(4)) - 3.0) <= 1e-14
    # rank-one uv* has norm ||u|| ||v||
    u = np.array([[3.0], [4.0]])
    v = np.array([[1.0, 2.0]])
    assert abs(operator_norm(u @ v) - 5.0 * math.sqrt(5.0)) <= 1e-12


def test_operator_norm_equals_the_numpy_two_norm_exactly():
    rng = np.random.default_rng(12)
    for rows in (1, 2, 3, 4, 8, 16):
        for cols in {1, rows, 16 // rows + 1, 16}:
            for _ in range(20):
                z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
                assert operator_norm(z) == float(np.linalg.norm(z, 2))


def test_try_invert_returns_inverse_or_none():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        z = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n)
        inv = try_invert(z)
        assert inv is not None
        assert operator_norm(z @ inv - np.eye(n)) <= 1e-10
    assert try_invert(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)) is None
    with pytest.raises(ShapeError):
        try_invert(np.ones((2, 3), dtype=complex))


def test_try_invert_threshold_respects_inv_tol():
    z = np.diag([1.0, 1e-6]).astype(complex)
    assert try_invert(z) is not None
    assert try_invert(z, Tolerance(1e-2)) is None


def stack_with_singular_items(rng, n, m):
    """m random n x n matrices, every third one of rank n - 1 and one nearly singular."""
    z = rng.uniform(-1, 1, (m, n, n)) + 1j * rng.uniform(-1, 1, (m, n, n))
    for i in range(0, m, 3):
        u, s, vh = np.linalg.svd(z[i])
        s[-1] = 0.0
        z[i] = (u * s) @ vh
    z[1] = np.diag(np.r_[np.ones(n - 1), 1e-11])
    return z


def test_stacked_try_invert_matches_the_scalar_call_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in (1, 2, 3, 5):
        z = stack_with_singular_items(rng, n, 10)
        inverses, singular = try_invert(z)
        assert inverses.shape == z.shape and singular.shape == (10,)
        assert singular.any() and not singular.all()
        for item, inverse, dead in zip(z, inverses, singular):
            alone = try_invert(item)
            assert dead == (alone is None)
            if dead:
                assert np.isnan(inverse).all()
            else:
                assert np.array_equal(inverse, alone)
        # leading dimensions beyond one are items too
        grid_inverses, grid_singular = try_invert(z.reshape(2, 5, n, n))
        assert np.array_equal(grid_singular.ravel(), singular)
        assert np.array_equal(grid_inverses.reshape(z.shape), inverses, equal_nan=True)
        # singular_test gives the smallest singular values behind the verdicts
        smin, verdict = singular_test(z)
        assert np.array_equal(verdict, singular)
        assert np.array_equal(smin, [np.linalg.svd(item, compute_uv=False)[-1] for item in z])
        # operator_norm takes the same stacks, and rectangular ones, one norm per item
        for stack in (z, z.reshape(2, 5, n, n), z[:, :, : max(1, n - 1)]):
            items = stack.reshape(-1, *stack.shape[-2:])
            norms = operator_norm(stack)
            assert norms.shape == stack.shape[:-2]
            assert np.array_equal(norms.ravel(), [operator_norm(item) for item in items])
        assert type(operator_norm(z[0])) is float


def test_stacked_try_invert_on_an_all_singular_stack():
    z = np.zeros((4, 3, 3), dtype=complex)
    z[:, 0, 0] = 1.0
    inverses, singular = try_invert(z)
    assert singular.all()
    assert np.isnan(inverses).all() and inverses.shape == z.shape


def test_stacked_try_invert_rejects_non_square_stacks():
    for shape in ((5, 2, 3), (2, 2, 1, 3), (3,)):
        with pytest.raises(ShapeError):
            try_invert(np.ones(shape, dtype=complex))
        with pytest.raises(ShapeError):
            singular_test(np.ones(shape, dtype=complex))


def test_invert_is_try_invert_with_a_typed_failure():
    rng = np.random.default_rng(14)
    for n in range(2, 17):
        z = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        expected = try_invert(z, DEFAULT_TOL)
        assert expected is not None
        assert np.array_equal(invert(z, DEFAULT_TOL, "unused"), expected)
    with pytest.raises(SingularMatrixError) as exc:
        invert(np.diag([1.0, 1e-11]).astype(complex), DEFAULT_TOL, "the block B is singular")
    assert str(exc.value) == "the block B is singular"
    with pytest.raises(ShapeError):
        invert(np.ones((2, 3), dtype=complex), DEFAULT_TOL, "unused")
    # every caller states its tolerance and its failure
    params = inspect.signature(invert).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_principal_sqrt_on_diagonalizable_inputs():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        z = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
        m = np.eye(n) + 0.5 * z / max(1.0, operator_norm(z))
        q = principal_sqrt(m)
        assert operator_norm(q @ q - m) <= 1e-11
        assert np.linalg.eigvals(q).real.min() > 0


def test_principal_sqrt_of_identity_plus_nilpotent():
    # (I + N/2)^2 = I + N exactly when N^2 = 0
    n = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    q = principal_sqrt(np.eye(2) + n)
    assert operator_norm(q - (np.eye(2) + 0.5 * n)) <= 1e-12


def test_principal_sqrt_of_defective_matrix():
    m = np.array([[1.0, 5.0], [0.0, 1.0]], dtype=complex)
    q = principal_sqrt(m)
    assert operator_norm(q @ q - m) <= 1e-10
    assert operator_norm(q - np.array([[1.0, 2.5], [0.0, 1.0]])) <= 1e-10


def test_principal_sqrt_rejects_branch_cut_spectrum():
    with pytest.raises(SpectrumError):
        principal_sqrt(-np.eye(2, dtype=complex))
    # eigenvalues +1 and -1
    with pytest.raises(SpectrumError):
        principal_sqrt(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(SpectrumError):
        principal_sqrt(np.zeros((2, 2), dtype=complex))


def test_principal_sqrt_of_a_stack_matches_single_calls_bit_for_bit(monkeypatch):
    # a stack must not rely on sqrtm taking stacks, which older SciPy lacks
    single_sqrtm = scipy.linalg.sqrtm

    def sqrtm_of_one_matrix(a, *args, **kwargs):
        assert np.ndim(a) == 2
        return single_sqrtm(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "sqrtm", sqrtm_of_one_matrix)
    rng = np.random.default_rng(14)
    for n in (1, 2, 4, 8):
        z = rng.uniform(-1, 1, (12, n, n)) + 1j * rng.uniform(-1, 1, (12, n, n))
        m = np.eye(n) + 0.9 * z / operator_norm(z)[:, None, None]
        q = principal_sqrt(m)
        assert q.shape == m.shape
        for item, root in zip(m, q):
            assert np.array_equal(root, principal_sqrt(item))


def test_principal_sqrt_of_a_stack_names_the_first_item_on_the_cut():
    m = np.stack([np.eye(2, dtype=complex)] * 5)
    m[3] = -np.eye(2)
    m[4] = np.zeros((2, 2))
    with pytest.raises(SpectrumError) as exc:
        principal_sqrt(m)
    assert exc.value.index == 3
    with pytest.raises(SpectrumError) as exc:
        principal_sqrt(m[3])
    assert exc.value.index is None
    # judged relative to max(1, ||m||) per item, so a large item does not
    # widen the band of its neighbours
    m = np.stack([np.diag([1e-8, 1.0]), np.diag([1e-8, 1e9])]).astype(complex)
    with pytest.raises(SpectrumError) as exc:
        principal_sqrt(m)
    assert exc.value.index == 1
    assert np.array_equal(principal_sqrt(m[:1])[0], principal_sqrt(m[0]))


def test_binomial_series_scalar_square_root():
    # (1 + 0.25)^0.5
    b = binomial_series(0.5, np.array([[0.25]], dtype=complex))
    assert abs(b[0, 0] - math.sqrt(1.25)) <= 1e-12
    assert abs(b[0, 0] - 1.118033988749895) <= 1e-12


def test_binomial_series_integer_exponent_terminates_exactly():
    rng = np.random.default_rng(14)
    w = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    w *= 0.2 / operator_norm(w)
    eye = np.eye(3)
    b2 = binomial_series(2, w)
    assert operator_norm(b2 - (eye + 2 * w + w @ w)) <= 1e-13
    b0 = binomial_series(0, w)
    assert operator_norm(b0 - eye) <= 1e-13


def test_binomial_series_negative_one_inverts():
    rng = np.random.default_rng(15)
    for _ in range(10):
        w = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        w *= 0.5 / max(1.0, operator_norm(w))
        b = binomial_series(-1, w)
        assert operator_norm((np.eye(2) + w) @ b - np.eye(2)) <= 1e-10


def test_binomial_series_inverse_pairing():
    rng = np.random.default_rng(16)
    for _ in range(15):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        w *= rng.uniform(0.1, 0.8) / operator_norm(w)
        prod = binomial_series(lam, w) @ binomial_series(-lam, w)
        assert operator_norm(prod - np.eye(3)) <= 1e-9


def test_binomial_series_shifted_factor_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        w *= 0.6 / max(1.0, operator_norm(w))
        s = binomial_series_shifted(lam, w)
        b = binomial_series(lam, w)
        assert operator_norm(np.eye(2) + w @ s - b) <= 1e-11


def test_binomial_series_requires_contraction():
    with pytest.raises(ConvergenceError):
        binomial_series(0.5, np.eye(2, dtype=complex))
    with pytest.raises(ConvergenceError):
        binomial_series_shifted(0.5, 1.5 * np.eye(2, dtype=complex))
    with pytest.raises(ShapeError):
        binomial_series(0.5, np.ones((2, 3), dtype=complex))


def series_by_terms(lam, w):
    """Term-by-term reference for the full and shifted sums, same stopping rule."""
    nw = np.linalg.norm(w, 2)
    eye = np.eye(w.shape[0], dtype=complex)
    full, shifted, prev, c = eye, np.zeros_like(eye), eye, 1.0
    for n in range(1, SERIES_TERM_CAP + 1):
        c = c * (lam - n + 1) / n
        if c == 0:
            break
        power = prev @ w
        full = full + c * power
        shifted = shifted + c * prev
        prev = power
        if n >= abs(lam) and abs(c) * nw**n / (1.0 - nw) < SERIES_TOL:
            break
    return full, shifted


def close_relative(got, want, bound):
    return operator_norm(got - want) <= bound * operator_norm(want)


def contraction(rng, n, norm):
    w = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
    return w * (norm / operator_norm(w))


def test_binomial_series_matches_a_term_by_term_loop():
    rng = np.random.default_rng(18)
    for trial in range(60):
        w = contraction(rng, int(rng.integers(1, 9)), rng.uniform(0.05, 0.9))
        if trial % 6 == 0:
            lam = float(rng.integers(-3, 4))
        else:
            lam = complex(2.0 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
        full, shifted = series_by_terms(lam, w)
        assert close_relative(binomial_series(lam, w), full, 1e-14)
        assert close_relative(binomial_series_shifted(lam, w), shifted, 1e-14)


def test_binomial_series_grid_stops_each_lambda_on_its_own():
    # exponents that stop at very different term counts share one call
    rng = np.random.default_rng(19)
    lams = np.array([0.0, 1.0, 2.0, -1.0, 0.5, 1.5 - 0.5j, 2.0j, -2.0, 0.01])
    for n, norm in ((1, 0.3), (3, 0.6), (5, 0.85)):
        w = contraction(rng, n, norm)
        full, shifted = binomial_series_grid(lams, w)
        assert full.shape == shifted.shape == (len(lams), n, n)
        for lam, f, s in zip(lams, full, shifted):
            want_full, want_shifted = series_by_terms(lam, w)
            assert close_relative(f, want_full, 1e-14)
            assert close_relative(s, want_shifted, 1e-14)


def test_binomial_series_grid_integer_exponents_terminate_exactly():
    # ||w|| = 0.99995 is far beyond the term cap for any non-integer exponent
    rng = np.random.default_rng(20)
    w = contraction(rng, 3, 0.99995)
    eye = np.eye(3)
    w2 = w @ w
    full, shifted = binomial_series_grid([0, 1, 2, 3], w)
    want_full = [eye, eye + w, eye + 2 * w + w2, eye + 3 * w + 3 * w2 + w2 @ w]
    want_shifted = [0 * eye, eye, 2 * eye + w, 3 * eye + 3 * w + w2]
    for got, want in zip([*full, *shifted], want_full + want_shifted):
        assert operator_norm(got - want) <= 1e-13
    with pytest.raises(ConvergenceError):
        binomial_series_grid([2, 0.5], w)


def test_binomial_series_grid_memory_stays_bounded_up_to_the_term_cap():
    # all 10,000 powers of a 16x16 matrix would take 41 MB
    rng = np.random.default_rng(21)
    w = contraction(rng, 16, 0.99995)
    grid = _lambda_grid()
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError):
            binomial_series_grid(grid, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
