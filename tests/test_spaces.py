"""Tests for operator subspaces and their closure predicates."""

import numpy as np
import pytest

from lftdom import (
    DEFAULT_TOL,
    OperatorSpace,
    ShapeError,
    SpaceClosureError,
    Tolerance,
    closed_under_quadratic,
    diagonal_space,
    full_space,
    is_power_algebra,
    quadric_domain,
    symmetric_space,
    upper_triangular_space,
)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def off_diagonal_space():
    return OperatorSpace(2, 2, [E12, E21], label="off-diagonal")


def test_construction_rejects_dependent_basis():
    with pytest.raises(ValueError):
        OperatorSpace(2, 2, [E11, 2 * E11])
    with pytest.raises(ShapeError):
        OperatorSpace(2, 2, [np.ones((2, 3), dtype=complex)])


def test_contains_basis_elements_and_spans():
    rng = np.random.default_rng(21)
    for space in (full_space(2, 3), diagonal_space(3), symmetric_space(2), off_diagonal_space()):
        for b in space.basis:
            assert space.contains(b)
        coeffs = rng.uniform(-1, 1, space.dim) + 1j * rng.uniform(-1, 1, space.dim)
        assert space.contains(space.lincomb(coeffs))


def test_contains_examples():
    assert full_space(2, 2).contains(np.array([[1, 7j], [3, 4]], dtype=complex))
    assert not diagonal_space(2).contains(E12)
    assert symmetric_space(2).contains(np.array([[1, 2], [2, 3]], dtype=complex))
    assert not symmetric_space(2).contains(E12)


def test_contains_rejects_wrong_shape():
    with pytest.raises(ShapeError):
        full_space(2, 2).contains(np.ones((3, 3), dtype=complex))


def test_stacked_contains_matches_the_scalar_verdicts():
    rng = np.random.default_rng(21)
    space = upper_triangular_space(3)
    members = [space.lincomb(rng.uniform(-1, 1, space.dim)) for _ in range(3)]
    others = [rng.uniform(-1, 1, (3, 3)) for _ in range(3)]
    stack = np.stack(members + others)
    verdicts = space.contains(stack)
    assert verdicts.tolist() == [bool(space.contains(z)) for z in stack] == [True] * 3 + [False] * 3
    assert np.allclose(space.residual(stack), [space.residual(z) for z in stack], rtol=1e-14)
    with pytest.raises(ShapeError):
        space.contains(np.ones((2, 3, 2)))
    with pytest.raises(ShapeError):
        space.project(stack)


def residual_verdicts(space, z, tol):
    """The residual route of contains, written out."""
    size = np.linalg.norm(z, axis=(-2, -1))
    return space.residual(z) <= tol.eq_tol * (1.0 + size)


# norms that overflow, and 0 * inf at Tolerance(0), warn on both routes
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 2), (8, 8), (16, 16), (5, 1)])
def test_full_space_contains_judges_finiteness_alone(shape):
    rng = np.random.default_rng(22)
    space = full_space(*shape)
    assert np.array_equal(space._onb, np.eye(space.dim))
    stack = rng.uniform(-1, 1, (5, *shape)) + 1j * rng.uniform(-1, 1, (5, *shape))
    stack[1] *= 1e300  # its Frobenius norm overflows
    stack[2] *= 1e-300
    stack[3, 0, 0] = 1e308 - 1e308j
    stack[4, -1, 0] = complex(0.0, np.inf)
    for tol in (DEFAULT_TOL, Tolerance(0.9), Tolerance(1e-300), Tolerance(0.0)):
        verdicts = space.contains(stack, tol)
        assert verdicts.dtype == bool and verdicts.shape == (5,)
        assert verdicts.tolist() == residual_verdicts(space, stack, tol).tolist()
        for z in stack:
            verdict = space.contains(z, tol)
            assert type(verdict) is np.bool_
            assert verdict == residual_verdicts(space, z, tol)
    # Tolerance(0) rejects the points whose norms overflow, through the residual
    assert space.contains(stack, Tolerance(0.0)).tolist() == [True, False, True, False, False]
    assert (~space.contains(stack)).tolist() == [False] * 4 + [True]


def test_contains_takes_the_residual_off_the_standard_full_basis(monkeypatch):
    rng = np.random.default_rng(23)
    dense = OperatorSpace(2, 2, [rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
                                 for _ in range(4)])
    quadric = quadric_domain(4).domain.space
    for space in (dense, quadric):
        assert not space._onb_is_identity
        calls = []
        monkeypatch.setattr(space, "_residual", lambda z, real=space._residual: calls.append(z) or real(z))
        z = space.lincomb(rng.uniform(-1, 1, space.dim))
        assert space.contains(z) and calls


def test_lincomb_uses_the_basis_stacked_at_construction(monkeypatch):
    rng = np.random.default_rng(23)
    space = symmetric_space(3)
    coeffs = rng.uniform(-1, 1, space.dim) + 1j * rng.uniform(-1, 1, space.dim)
    expected = np.tensordot(coeffs, np.stack(space.basis), axes=1)
    monkeypatch.setattr(np, "stack", None)
    assert np.array_equal(space.lincomb(coeffs), expected)


def test_projection_and_coordinates_round_trip():
    rng = np.random.default_rng(22)
    space = upper_triangular_space(3)
    for _ in range(10):
        coeffs = rng.uniform(-1, 1, space.dim) + 1j * rng.uniform(-1, 1, space.dim)
        z = space.lincomb(coeffs)
        assert space.residual(z) <= 1e-12
        assert np.allclose(space.coordinates(z), coeffs)
        assert np.allclose(space.project(z), z)
    z = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
    p = space.project(z)
    assert space.contains(p)
    # projection is idempotent and never increases the residual
    assert np.allclose(space.project(p), p)


def test_closed_under_quadratic_examples():
    eye = np.eye(2, dtype=complex)
    assert closed_under_quadratic(full_space(2, 2), eye)
    assert closed_under_quadratic(OperatorSpace(2, 2, [E11]), eye)
    assert not closed_under_quadratic(off_diagonal_space(), eye)
    # an off-diagonal middle factor keeps the products off-diagonal
    assert closed_under_quadratic(off_diagonal_space(), E12 + 2 * E21)


def test_closed_under_quadratic_agrees_with_sampling():
    rng = np.random.default_rng(23)
    cases = [
        (full_space(2, 2), np.eye(2, dtype=complex)),
        (diagonal_space(3), np.diag([1.0, 2.0, -1.0]).astype(complex)),
        (off_diagonal_space(), E12 + 2 * E21),
    ]
    for space, x0 in cases:
        assert closed_under_quadratic(space, x0)
        for _ in range(50):
            coeffs = rng.uniform(-1, 1, space.dim) + 1j * rng.uniform(-1, 1, space.dim)
            z = space.lincomb(coeffs)
            assert space.contains(z @ x0 @ z)


def pairwise_products_stay(space, x, tol=DEFAULT_TOL):
    """The former per-pair loop: one space.contains per symmetrised product."""
    bs = space.basis
    return all(
        space.contains(bs[i] @ x @ bs[j] + bs[j] @ x @ bs[i], tol)
        for i in range(len(bs))
        for j in range(i, len(bs))
    )


@pytest.mark.parametrize("n", [4, 16])
def test_stacked_closure_checks_match_the_pairwise_loop(n):
    rng = np.random.default_rng(24 + n)
    eye = np.eye(n, dtype=complex)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    cases = [
        # x0 symmetric closes the symmetric space; a generic x0 does not
        (symmetric_space(n), g + g.T, True),
        (symmetric_space(n), g, False),
        # x0 upper triangular closes the upper-triangular space
        (upper_triangular_space(n), np.triu(g), True),
        (upper_triangular_space(n), g, False),
    ]
    for space, x0, closes in cases:
        assert closed_under_quadratic(space, x0) is closes
        assert pairwise_products_stay(space, x0) is closes
        assert is_power_algebra(space)
    # contains I but not the symmetrised product E01 E12 + E12 E01 = E02
    e = np.zeros((3, n, n), dtype=complex)
    e[0] = np.eye(n)
    e[1, 0, 1] = 1.0
    e[2, 1, 2] = 1.0
    chain_space = OperatorSpace(n, n, list(e))
    assert not is_power_algebra(chain_space)
    assert not pairwise_products_stay(chain_space, eye)


def test_is_power_algebra_examples():
    for n in (1, 2, 3, 4):
        assert is_power_algebra(full_space(n, n))
    assert is_power_algebra(upper_triangular_space(2))
    assert is_power_algebra(diagonal_space(3))
    trace_zero = OperatorSpace(2, 2, [E12, E21, E11 - E22], label="trace-zero")
    assert not is_power_algebra(trace_zero)
    assert not is_power_algebra(off_diagonal_space())
    with pytest.raises(SpaceClosureError):
        is_power_algebra(full_space(2, 3))
