"""Tests for the dense matrix kernels."""

import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from lftdom import (
    DEFAULT_TOL,
    ConvergenceError,
    ShapeError,
    SingularMatrixError,
    SpectrumError,
    Tolerance,
    as_cmatrix,
    as_cstack,
    ball_roots,
    binomial_series,
    binomial_series_grid,
    binomial_series_shifted,
    dagger,
    full_space,
    invert,
    invertibles_domain,
    linalg,
    liouville_curve,
    operator_norm,
    principal_sqrt,
    singular_test,
    try_invert,
)
from lftdom.linalg import SERIES_TERM_CAP, SERIES_TOL, binomial_series_sum, binomial_series_table
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
    # a 0 x 0 matrix has no side, so the certificate has no cap for it
    for shape in ((5, 2, 3), (2, 2, 1, 3), (3,), (0, 0), (3, 0, 0)):
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


def test_verdict_kernels_keep_the_bits_of_numpys_wrappers():
    # singular_test and try_invert call numpy's private LAPACK gufuncs
    # directly; they must give the bits of the public svd and inv they skip
    rng = np.random.default_rng(31)
    for n in range(1, 17):
        z = stack_with_singular_items(rng, n, 7)
        smin, singular = singular_test(z)
        assert smin.tobytes() == np.linalg.svd(z, compute_uv=False)[:, -1].tobytes()
        assert singular.any() and not singular.all()
        inverses, verdict = try_invert(z)
        assert np.array_equal(verdict, singular)
        assert inverses[~singular].tobytes() == np.linalg.inv(z[~singular]).tobytes()
        grid_inverses, _ = try_invert(z[~singular].reshape(1, -1, n, n))
        assert grid_inverses.tobytes() == np.linalg.inv(z[~singular]).tobytes()
        for item, dead in zip(z, singular):
            alone, alone_singular = singular_test(item)
            assert type(alone) is np.float64 and alone_singular == dead
            assert alone.tobytes() == np.linalg.svd(item, compute_uv=False)[-1].tobytes()
            if not dead:
                assert try_invert(item).tobytes() == np.linalg.inv(item).tobytes()


def test_a_failed_lu_is_a_singular_verdict():
    # exactly singular, but the SVD's rounding puts its smin above inv_tol:
    # LAPACK's LU meets an exact zero pivot, where np.linalg.inv raised
    # LinAlgError
    lu_fails = 1e6 * np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    regular = np.random.default_rng(32).uniform(-1, 1, (4, 2, 2)).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        smin, singular = singular_test(lu_fails)
        assert smin > DEFAULT_TOL.inv_tol and not singular
        assert try_invert(lu_fails) is None
        with pytest.raises(SingularMatrixError) as exc:
            invert(lu_fails, DEFAULT_TOL, "the block B is singular")
        assert str(exc.value) == "the block B is singular"
        # at Tolerance(0.0) any smin passes the threshold
        assert try_invert(lu_fails / 1e6, Tolerance(0.0)) is None
        # between regular items of a stack, which keep np.linalg.inv's bits
        z = np.concatenate([regular[:2], lu_fails[None], regular[2:]])
        inverses, singular = try_invert(z)
        assert singular.tolist() == [False, False, True, False, False]
        assert np.isnan(inverses[2]).all()
        assert inverses[~singular].tobytes() == np.linalg.inv(regular).tobytes()
        # beside an item judged singular by its smin, and with leading dimensions
        z[0, 1] = z[0, 0]
        inverses, singular = try_invert(z.reshape(5, 1, 2, 2))
        assert singular.ravel().tolist() == [True, False, True, False, False]
        assert np.isnan(inverses[singular]).all()
        assert inverses[~singular].tobytes() == np.linalg.inv(regular[1:]).tobytes()


def test_a_non_finite_entry_is_a_singular_verdict():
    # the SVD of an inf entry is NaN, which once passed the threshold, so
    # try_invert returned a finite "inverse"; NaN is not above inv_tol
    eye = np.eye(2, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([[np.inf, 1.0], [1.0, 1.0]], [[1.0, complex(0.0, -np.inf)], [1.0, 1.0]]):
            bad = np.array(bad, dtype=complex)
            smin, singular = singular_test(bad)
            assert np.isnan(smin) and singular
            assert try_invert(bad) is None
            inverses, singular = try_invert(np.stack([eye, bad, 2.0 * eye]))
            assert singular.tolist() == [False, True, False]
            assert np.isnan(inverses[1]).all()
        # a NaN entry sets numpy's invalid flag inside the SVD; try_invert
        # gives the verdict without a warning
        nan_entry = np.array([[1.0, 1.0], [1.0, np.nan]], dtype=complex)
        assert try_invert(nan_entry) is None
        assert try_invert(np.stack([eye, nan_entry]))[1].tolist() == [False, True]


def assert_the_verdict_contract(z, tol=DEFAULT_TOL):
    """try_invert on z, a matrix or a stack, against its public contract, item by item.

    An item is singular where singular_test says so or where LAPACK's LU
    gave NaN, and a regular item's inverse has the bits of the inv gufunc
    on that item; a stack gives every item the verdict and bits of a call
    on it alone, and neither warns.
    """
    items = z.reshape(-1, *z.shape[-2:])
    with np.errstate(invalid="ignore", over="ignore"):
        lu = np.stack([_umath_linalg.inv(item, signature="D->D") for item in items])
        expected = [bool(singular_test(item, tol)[1] or np.isnan(x[0, 0])) for item, x in zip(items, lu)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = [try_invert(item, tol) for item in items]
        result = try_invert(z, tol) if z.ndim > 2 else None
    assert [x is None for x in alone] == expected
    for x, inverse in zip(alone, lu):
        assert x is None or x.tobytes() == inverse.tobytes()
    if result is not None:
        inverses, singular = result
        assert singular.shape == z.shape[:-2] and inverses.shape == z.shape
        assert singular.ravel().tolist() == expected
        flat = inverses.reshape(items.shape)
        assert np.isnan(flat[singular.ravel()]).all()
        assert flat[~singular.ravel()].tobytes() == lu[~np.array(expected, dtype=bool)].tobytes()
    return expected


def unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


def with_singular_values(rng, s):
    """U diag(s) V* with random unitary U and V."""
    return (unitary(rng, len(s)) * s) @ unitary(rng, len(s))


def frobenius_condition(n, kappa):
    """Singular values (t, 1, ..., 1) of side n whose ||A||_F ||A^-1||_F is kappa."""
    # (t^2 + m)(1/t^2 + m) = kappa^2 with m = n - 1, a quadratic in t^2
    m = n - 1
    b = kappa**2 - 1 - m**2
    return np.r_[math.sqrt((b + math.sqrt(b * b - 4 * m * m)) / (2 * m)), np.ones(m)]


@pytest.fixture
def svd_items(monkeypatch):
    """A function giving the item count of each SVD that one try_invert call runs."""
    seen = []
    real = linalg._singular_test

    def spy(z, tol):
        seen.append(z.size // z.shape[-1] ** 2)
        return real(z, tol)

    def of(z, tol=DEFAULT_TOL):
        seen.clear()
        try_invert(z, tol)
        return list(seen)

    monkeypatch.setattr(linalg, "_singular_test", spy)
    return of


def test_the_inverse_certificate_keeps_every_verdict_and_bit(svd_items):
    rng = np.random.default_rng(38)
    inv_tol = DEFAULT_TOL.inv_tol
    items = []
    for n in (1, 2, 3, 5, 8, 16):
        for scale in (1.0 - 1e-9, 1.0 + 1e-9):
            # the smallest singular value at inv_tol, and every singular value
            # at inv_tol or at the edge ||X|| inv_tol = 1/2 of the certificate
            items.append(with_singular_values(rng, np.r_[np.ones(n - 1), scale * inv_tol]))
            for edge in (1.0, 2.0 * math.sqrt(n)):
                items.append(scale * edge * inv_tol * unitary(rng, n))
    for item in items:
        assert_the_verdict_contract(item)
    # both routes run: some items are certified, the others go to the SVD
    routes = [svd_items(item) for item in items]
    assert [] in routes and [1] in routes
    # the cap follows LU's worst growth: CERTIFY_KAPPA up to n = 12, below 1 from n = 27
    assert linalg._kappa_cap(12) == linalg.CERTIFY_KAPPA > linalg._kappa_cap(13)
    assert linalg._kappa_cap(26) > 1.0 > linalg._kappa_cap(27) > linalg._kappa_cap(2000) >= 0.0
    # the Frobenius condition number on both sides of the cap
    for n in (2, 13, 16):
        cap = linalg._kappa_cap(n)
        below, above = (with_singular_values(rng, frobenius_condition(n, f * cap)) for f in (0.999, 1.001))
        assert assert_the_verdict_contract(below) == [False] and svd_items(below) == []
        assert assert_the_verdict_contract(above) == [False] and svd_items(above) == [1]
    # Wilkinson's matrix: LU with partial pivoting grows its last pivot to 2^15
    wilkinson = np.eye(16) - np.tril(np.ones((16, 16)), -1)
    wilkinson[:, -1] = 1.0
    wilkinson = wilkinson.astype(complex)
    assert assert_the_verdict_contract(wilkinson) == [False] and svd_items(wilkinson) == []
    # far from 1 in scale, subnormal, and an exact zero pivot whose SVD reads regular
    regular = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3)
    odd = [
        1e150 * regular,
        1e-150 * regular,
        1e160 * regular,
        1e-160 * regular,
        1e-310 * np.eye(3, dtype=complex),
        np.diag([1.0, 1e-310, 1.0]).astype(complex),
        regular + 5e-324,
        np.array([[1.0, 5e-324], [5e-324, 1e-308]], dtype=complex),
        1e6 * np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex),
    ]
    verdicts = [assert_the_verdict_contract(item) for item in odd]
    assert verdicts[0] == [False] and verdicts[1] == [True] and verdicts[-1] == [True]
    # stacks: one item each of the cases above, beside regular items, in a (2, 5, n, n) grid
    for n in (2, 3, 16):
        same_side = [item for item in items + odd if item.shape == (n, n)]
        grid = np.concatenate([np.stack(same_side), rng.uniform(-1, 1, (10, n, n)) + 0j])[:10]
        grid = grid.reshape(2, 5, n, n)
        assert any(assert_the_verdict_contract(grid))
        # one SVD, of the items the certificate leaves open
        assert [0 < k < 10 for k in svd_items(grid)] == [True]


def test_each_condition_of_the_certificate_decides_an_input(svd_items):
    inv_tol = DEFAULT_TOL.inv_tol
    decided = {
        # ||A|| ||X|| = 2 is far below the cap; ||X|| inv_tol = 14 is not below 1/2
        "inverse norm": 1e-11 * np.eye(2, dtype=complex),
        # ||X|| inv_tol = 0.17; ||A|| ||X|| = 3.7e16 is above the cap, and the
        # SVD's smin of this matrix (4/3 rounded, so not exactly singular) is 0
        "condition": 1e7 * np.array([[1.0, 0.75], [4.0 / 3.0, 1.0]], dtype=complex),
    }
    for name, a in decided.items():
        x = _umath_linalg.inv(a, signature="D->D")
        x_norm, a_norm = np.linalg.norm(x), np.linalg.norm(a)
        passes = {"inverse norm": x_norm * inv_tol < 0.5, "condition": a_norm * x_norm < linalg._kappa_cap(2)}
        # the other condition alone would certify an item the SVD calls singular
        assert not passes[name] and all(v for k, v in passes.items() if k != name), name
        assert singular_test(a)[1]
        assert try_invert(a) is None and svd_items(a) == [1]


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


def test_principal_sqrt_of_a_stack_matches_single_calls_bit_for_bit():
    rng = np.random.default_rng(14)
    for n in (1, 2, 4, 8):
        z = rng.uniform(-1, 1, (12, n, n)) + 1j * rng.uniform(-1, 1, (12, n, n))
        m = np.eye(n) + 0.9 * z / operator_norm(z)[:, None, None]
        q = principal_sqrt(m)
        assert q.shape == m.shape
        for item, root in zip(m, q):
            assert root.tobytes() == principal_sqrt(item).tobytes()


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


def test_ball_roots_match_the_principal_roots():
    rng = np.random.default_rng(15)
    for k, h in ((1, 1), (2, 2), (3, 2), (2, 3), (1, 4), (4, 4)):
        b = rng.uniform(-1, 1, (k, h)) + 1j * rng.uniform(-1, 1, (k, h))
        b *= rng.uniform(0.1, 0.99) / operator_norm(b)
        norm, left, right = ball_roots(b)
        assert abs(norm - operator_norm(b)) <= 1e-15
        eye_k, eye_h = np.eye(k), np.eye(h)
        assert operator_norm(left - dagger(left)) <= 1e-12
        assert operator_norm(right - dagger(right)) <= 1e-12
        assert operator_norm(left @ left @ (eye_k - b @ dagger(b)) - eye_k) <= 1e-11
        assert operator_norm(right @ right - (eye_h - dagger(b) @ b)) <= 1e-12
        want_left = np.linalg.inv(principal_sqrt(eye_k - b @ dagger(b)))
        assert operator_norm(left - want_left) <= 1e-11
        assert operator_norm(right - principal_sqrt(eye_h - dagger(b) @ b)) <= 1e-12
    # the padded sigma = 0 directions get root 1 on both sides
    norm, left, right = ball_roots(np.diag([0.6, 0.0]).astype(complex)[:, :1])
    assert norm == 0.6
    assert np.allclose(left, np.diag([1.25, 1.0]), rtol=0, atol=1e-15)
    assert np.allclose(right, [[0.8]], rtol=0, atol=1e-15)
    norm, left, right = ball_roots(np.zeros((2, 3), dtype=complex))
    assert (norm, left.tolist(), right.tolist()) == (0.0, np.eye(2).tolist(), np.eye(3).tolist())


def test_ball_roots_verdict_and_branch_cut_edge():
    # ||b|| >= 1 is the verdict, no roots and no warning; 0 < 1 - ||b||^2 <= eq_tol
    # is the cut edge principal_sqrt refuses too
    for b in (np.eye(2), np.diag([1.5, 0.5]), np.array([[0.0, 2.0, 0.0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norm, left, right = ball_roots(b.astype(complex))
        assert norm >= 1.0 and left is None and right is None
    for gap, tol in ((1e-10, DEFAULT_TOL), (5e-10, DEFAULT_TOL), (5e-4, Tolerance(1e-3))):
        b = np.diag([math.sqrt(1.0 - gap), 0.5]).astype(complex)
        with pytest.raises(SpectrumError):
            ball_roots(b, tol)
        with pytest.raises(SpectrumError):
            principal_sqrt(np.eye(2) - b @ dagger(b), tol)
    assert ball_roots(np.diag([math.sqrt(1.0 - 1e-8), 0.5]).astype(complex))[1] is not None


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


def test_binomial_series_raises_where_it_cannot_sum():
    w = 0.5 * np.eye(2, dtype=complex)
    # 1.5^1030 is finite, but binom(1030, j) 0.5^j overflows on the way there;
    # the typed error is the verdict, with no RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="overflowed"):
            binomial_series(1030.0, w)
        # still running at the term cap, past coefficients that overflow
        for lam, norm in ((-500.0, 0.25), (5000.0, 0.5)):
            with pytest.raises(ConvergenceError):
                binomial_series(lam, norm * np.eye(2, dtype=complex))
    # the stopping rule can never stop these; they raise before any term
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (np.nan, np.inf, 2e4, complex(0.0, -2e4)):
            with pytest.raises(ConvergenceError, match="finite exponents"):
                binomial_series(lam, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (1000.0, 1025.0):
            assert abs(binomial_series(lam, w)[0, 0] / 1.5**lam - 1.0) <= 1e-13
    full, shifted = binomial_series_grid([], w)
    assert full.shape == shifted.shape == (0, 2, 2)


def test_binomial_series_sums_past_a_stop_without_warnings():
    # binom(lam, j) with Re lam << 0 grows like j^(-Re lam - 1): the columns
    # formed past this lam's stop overflow, and the sums leave them out
    lam, w = -414.3 + 326j, 0.25 * np.eye(2, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = frozen_series_sum([lam], binomial_series_table(w, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = binomial_series(lam, w)
        shifted = binomial_series_shifted(lam, w)
    assert full.tobytes() == want[0][0].tobytes()
    assert shifted.tobytes() == want[1][0].tobytes()


def test_binomial_series_of_zero_stops_after_one_term():
    # w = 0: (I + 0)^lam = I and the shifted sum is lam I for every lam up to
    # the term cap, from one one-term block
    lams = [0.5, 1000.0, 5000.0, -1e4, complex(3000.0, 7000.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 3):
            table = binomial_series_table(np.zeros((n, n), dtype=complex), 0.0)
            assert len(table.powers) == 2
            full, shifted = binomial_series_sum(lams, table)
            assert np.array_equal(full, [np.eye(n)] * len(lams))
            assert np.array_equal(shifted, np.array(lams)[:, None, None] * np.eye(n))


def test_single_value_series_take_one_exponent():
    w = 0.25 * np.eye(2, dtype=complex)
    for lams in (np.array([0.5, 2.0]), [0.5], np.zeros((1, 1))):
        for fn in (binomial_series, binomial_series_shifted):
            with pytest.raises(ShapeError, match="binomial_series_grid"):
                fn(lams, w)
    assert np.array_equal(binomial_series(np.float64(0.5), w), binomial_series_grid([0.5], w)[0][0])


def frozen_series_sum(lams, table):
    """The reference block loop, kept as it was before SeriesTable held steps and decay."""
    nw, powers = table.norm, table.powers
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    m, n, size = lams.size, powers.shape[1], len(powers) - 1
    full = np.zeros((m, n * n), dtype=complex)
    full[:, :: n + 1] = 1.0
    shifted = np.zeros((m, n * n), dtype=complex)
    coef = np.ones(m, dtype=complex)
    radius = np.abs(lams)[:, None]
    if not radius.max(initial=0.0) <= SERIES_TERM_CAP:
        raise ConvergenceError(f"binomial series needs finite exponents with |lam| <= {SERIES_TERM_CAP}")
    stopped = np.zeros(m, dtype=bool)
    j0 = 0
    while True:
        j = np.arange(j0 + 1, j0 + size + 1, dtype=float)
        block = coef[:, None] * np.cumprod((lams[:, None] - j + 1.0) / j, axis=1)
        done = (block == 0) | (
            (j >= radius) & (np.abs(block) * nw**j / (1.0 - nw) < SERIES_TOL)
        )
        done &= j <= SERIES_TERM_CAP
        # a lam keeps the term where it stops and drops every later one
        ran_out = np.cumsum(done, axis=1) > done
        used = np.where(ran_out | stopped[:, None], 0.0, block)
        full += used @ powers[1:].reshape(size, n * n)
        shifted += used @ powers[:-1].reshape(size, n * n)
        stopped |= done.any(axis=1)
        if stopped.all():
            # one block of terms cannot overflow for |lam| <= SERIES_TERM_CAP
            if j0 and not (np.isfinite(full).all() and np.isfinite(shifted).all()):
                raise ConvergenceError("binomial series overflowed")
            return full.reshape(m, n, n), shifted.reshape(m, n, n)
        j0 += size
        if j0 >= SERIES_TERM_CAP:
            raise ConvergenceError(
                f"binomial series did not meet the tail bound in {SERIES_TERM_CAP} terms"
            )
        coef = block[:, -1]
        if j0 == size:  # w^(j0+i) = w^j0 w^i; the table itself stays as built
            powers = powers.copy()
        powers[0] = powers[-1]
        np.matmul(powers[0], table.powers[1:], out=powers[1:])


def series_outcome(fn, lams, table):
    """The bytes of both sums, or the type and message of the error raised instead."""
    try:
        full, shifted = fn(lams, table)
    except ConvergenceError as err:
        return type(err), str(err)
    return full.tobytes(), shifted.tobytes()


def test_binomial_series_sum_keeps_the_bytes_of_the_reference_loop():
    # tobytes compares signed zeros and NaN payloads too; the raising cases
    # must raise the same error with the same message
    rng = np.random.default_rng(23)
    grid = _lambda_grid()
    norms = (0.0, 0.05, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
    extremes = (1030.0, -500.0, 5000.0, 1000.0, 1025.0, -414.3 + 326j, np.nan, 2e4, -0.0, complex(-0.5, -0.0))
    raised = 0
    for case in range(300):
        n, norm, kind = int(rng.integers(1, 9)), norms[case % len(norms)], case % 5
        if kind >= 3:
            # at w = 0 every block is one term, so a far lam would run |lam| blocks
            norm = norm or 0.25
        w = contraction(rng, n, norm) if norm else np.zeros((n, n), dtype=complex)
        table = binomial_series_table(w, operator_norm(w))
        if kind == 0:  # one lam inside the first block
            lams = complex(2.0 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()))
        elif kind == 1:  # verify's grid; every 8th lam where it runs to the term cap
            lams = grid if norm < 0.99 else grid[::8]
        elif kind == 2:  # terminating integers
            lams = rng.integers(-5, 6, size=int(rng.integers(1, 4))).astype(float)
        elif kind == 3:  # several blocks, and a mixed grid
            far = rng.uniform(100.0, 600.0) * np.exp(2j * np.pi * rng.uniform())
            lams = [far] if case % 2 else [far, 0.5, -0.0, complex(rng.uniform(-1200, 1200), rng.uniform(-800, 800))]
        else:
            lams = [extremes[(case // 5) % len(extremes)]]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = series_outcome(frozen_series_sum, lams, table)
            got = series_outcome(binomial_series_sum, lams, table)
        assert got == want, (case, n, norm, lams)
        raised += want[0] is ConvergenceError
    assert 40 <= raised <= 200


def runs_past_first_block(lam, table):
    """Whether lam meets no stop among the table's first block of terms."""
    j = np.arange(1, len(table.steps) + 1, dtype=float)
    coef = np.cumprod((lam - j + 1.0) / j)
    tail = np.abs(coef) * table.decay / (1.0 - table.norm)
    radius = abs(lam) if table.norm else 0.0
    return not np.any((coef == 0) | ((j >= radius) & (tail < SERIES_TOL)))


def test_curve_values_and_single_sums_keep_the_bytes_of_the_reference_loop():
    # a curve value forms only the shifted sum and binomial_series only the
    # full one; each keeps the bytes of the loop that forms both
    rng = np.random.default_rng(24)
    past_first = 0
    for n in (1, 2, 4, 8):
        dom = invertibles_domain(full_space(n, n))
        for norm in (0.0, 0.25, 0.5, 0.75, 0.9):
            step = contraction(rng, n, norm) if norm else np.zeros((n, n), dtype=complex)
            f = liouville_curve(dom, dom.z0 + step)
            table, w = f.table, f.w
            built = [a.tobytes() for a in (table.powers, table.steps, table.decay)]
            turns = np.exp(2j * np.pi * rng.uniform(size=4))
            lams = [0.5 * turns[0], turns[1], 2.0, -0.0, 2.0 * turns[2], 2.0 * turns[3], -2.0, 2j]
            for lam in lams:
                full, shifted = frozen_series_sum([lam], table)
                value = dom.z0 + (f.z - dom.z0) @ shifted[0]
                assert f(lam).tobytes() == value.tobytes(), (n, norm, lam)
                assert binomial_series(lam, w).tobytes() == full[0].tobytes(), (n, norm, lam)
                assert binomial_series_shifted(lam, w).tobytes() == shifted[0].tobytes(), (n, norm, lam)
                past_first += abs(lam) == 2.0 and 0.0 < norm < 0.9 and runs_past_first_block(lam, table)
            # either order of the sums, and the table stays read-only and as built
            full, shifted = frozen_series_sum(lams, table)
            got = binomial_series_sum(lams, table, ("shifted", "full"))
            assert [a.tobytes() for a in got] == [shifted.tobytes(), full.tobytes()]
            assert f.evaluate(lams)[1].tobytes() == full.tobytes()
            for a, before in zip((table.powers, table.steps, table.decay), built):
                assert not a.flags.writeable and a.tobytes() == before
            for bad in (np.nan, 1.5 * SERIES_TERM_CAP):
                for fn in (f, lambda lam: binomial_series(lam, w), lambda lam: binomial_series_shifted(lam, w)):
                    with pytest.raises(ConvergenceError, match="finite exponents"):
                        fn(bad)
    assert past_first >= 10
    # BLAS can give -0.0 in a stacked product where a sum started from zero
    # holds +0.0 (here at n = 3, where n^2 is odd)
    w = np.zeros((3, 3), dtype=complex)
    w[1, 0], w[2, 0], w[2, 2] = -0.0, 0.3, -0.0
    table = binomial_series_table(w, operator_norm(w))
    lams = [-0.5, -1.5, -2.0, 0.0]
    full, shifted = frozen_series_sum(lams, table)
    for sums in (("shifted",), ("full", "shifted")):
        got = binomial_series_sum(lams, table, sums)
        assert [a.tobytes() for a in got] == [{"full": full, "shifted": shifted}[s].tobytes() for s in sums]


def test_convergence_errors_carry_their_numbers():
    # one row per raise site: the call, then lam, ||w|| and the term count
    # it must carry, None where the site has none
    quarter = 0.25 * np.eye(2, dtype=complex)
    half = 0.5 * np.eye(2, dtype=complex)
    cases = [
        ("||w|| >= 1", lambda: binomial_series(0.5, 1.5 * np.eye(2, dtype=complex)), None, 1.5, None),
        ("not finite", lambda: binomial_series(np.nan, half), np.nan, 0.5, None),
        ("above the cap", lambda: binomial_series_grid([0.5, 2e4, np.nan], quarter), 2e4, 0.25, None),
        ("term cap", lambda: binomial_series(-500.0, quarter), -500.0, 0.25, SERIES_TERM_CAP),
        ("overflow", lambda: binomial_series(1030.0, half), 1030.0, 0.5, "counted"),
    ]
    for site, call, lam, norm, terms in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as info:
                call()
        err, message = info.value, str(info.value)
        assert err.norm == norm, site
        if lam is None:
            assert err.lam is None, site
        else:
            assert isinstance(err.lam, complex) and np.array_equal(err.lam, lam, equal_nan=True), site
        if terms == "counted":
            # the sums ran past their first block before they overflowed
            assert isinstance(err.terms, int) and 0 < err.terms < SERIES_TERM_CAP, site
        else:
            assert err.terms == terms, site
        # every number the message states is the one its fields carry
        if site == "||w|| >= 1":
            assert f"{err.norm:.6g}" in message
        elif site in ("not finite", "above the cap"):
            assert f"|lam| <= {SERIES_TERM_CAP}" in message and not abs(err.lam) <= SERIES_TERM_CAP
        elif site == "term cap":
            assert f"in {err.terms} terms" in message
        else:
            assert message == "binomial series overflowed"


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
