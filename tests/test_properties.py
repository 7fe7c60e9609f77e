"""Property tests of transitive chains on random domains and paths, and of the verdict.

Domains are full, symmetric or upper-triangular spaces with random C and Z0
in the space and D = I - C Z0, so that the kernel at the base point is C.
Requests whose polyline runs close to the singular set are filtered out
with this file's own numpy computations; every other request must yield a
chain with the documented guarantees.

The verdict's inputs are near singular and badly scaled: singular values
spread around ``inv_tol``, condition numbers on both sides of the cap of
``try_invert``'s certificate, and entries scaled by up to 10^100 either way.
"""

import warnings

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.linalg import _umath_linalg

from lftdom import (
    DEFAULT_TOL,
    Domain,
    full_space,
    operator_norm,
    singular_test,
    symmetric_space,
    transitive_chain,
    try_invert,
    upper_triangular_space,
)
from lftdom.automorphisms import CHAIN_MARGIN

SHAPES = {
    "full": lambda m: m,
    "symmetric": lambda m: 0.5 * (m + m.T),
    "upper": np.triu,
}


def space_of(kind, k, h):
    if kind == "full":
        return full_space(k, h)
    return symmetric_space(k) if kind == "symmetric" else upper_triangular_space(k)


def complex_matrices(rows, cols, scale=1.0):
    parts = arrays(np.float64, (2, rows, cols), elements=st.floats(-scale, scale))
    return parts.map(lambda p: p[0] + 1j * p[1])


@st.composite
def chain_requests(draw):
    kind = draw(st.sampled_from(sorted(SHAPES)))
    k = draw(st.integers(1, 3))
    h = draw(st.integers(1, 3)) if kind == "full" else k
    shape = SHAPES[kind]
    c = shape(draw(complex_matrices(h, k)))
    z0 = shape(draw(complex_matrices(k, h)))
    vertices = [shape(v) for v in draw(st.lists(complex_matrices(k, h, 2.0), max_size=2))]
    target = shape(draw(complex_matrices(k, h, 2.0)))
    return kind, c, z0, [z0] + vertices + [target]


def clear_of_singular_set(c, d, points, grid=64):
    """Whether every segment keeps C W + D well conditioned and the pull moderate.

    Samples each segment at grid + 1 points: the smallest over the largest
    singular value of C W + D stays above 1e-4 and ||(C W + D)^-1 C (b - a)||
    below 20, which keeps the step count small.
    """
    for a, b in zip(points, points[1:]):
        pts = a + (np.arange(grid + 1) / grid)[:, None, None] * (b - a)
        den = c @ pts + d
        s = np.linalg.svd(den, compute_uv=False)
        if (s[:, -1] < 1e-4 * s[:, 0]).any():
            return False
        x = np.linalg.solve(den, np.broadcast_to(c, (grid + 1,) + c.shape))
        if np.linalg.svd(x @ (b - a), compute_uv=False)[:, 0].max() > 20.0:
            return False
    return True


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(chain_requests())
def test_chain_guarantees_hold_on_random_requests(request):
    kind, c, z0, points = request
    k, h = z0.shape
    d = np.eye(h) - c @ z0
    assume(clear_of_singular_set(c, d, points))
    dom = Domain(space_of(kind, k, h), c, d, z0)
    target = points[-1]
    path = points if len(points) > 2 else None
    chain = transitive_chain(dom, target, path=path)
    assert chain.factor_count % 2 == 0
    assert all(s <= CHAIN_MARGIN for s in chain.step_norms)
    assert chain.residual <= 1e-8 * (1.0 + operator_norm(target))
    for vertex in points:
        assert any(np.array_equal(w, vertex) for w in chain.waypoints)


def unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / abs(np.diag(r)))


@st.composite
def near_singular_stacks(draw):
    """1 to 3 matrices 10^e U diag(s) V* of one side n, s spread around inv_tol."""
    n = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    items = []
    for _ in range(draw(st.integers(1, 3))):
        # up to 3 decades below inv_tol and 9 above: regular and singular
        # items, with condition numbers up to about 10^12
        s = DEFAULT_TOL.inv_tol * 10.0 ** np.array(draw(st.lists(st.floats(-3, 9), min_size=n, max_size=n)))
        exponent = draw(st.one_of(st.just(0), st.integers(-100, 100)))
        items.append(10.0**exponent * (unitary(rng, n) * s) @ unitary(rng, n))
    return np.stack(items)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(near_singular_stacks())
def test_the_verdict_is_the_svds_and_the_inverse_the_lus(z):
    # each item is singular where singular_test says so or where the LU gave
    # NaN, and a regular item's inverse has the inv gufunc's bits
    with np.errstate(invalid="ignore", over="ignore"):
        lu = _umath_linalg.inv(z, signature="D->D")
    expected = singular_test(z)[1] | np.isnan(lu[:, 0, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inverses, singular = try_invert(z)
        alone = [try_invert(item) for item in z]
    assert singular.tolist() == expected.tolist() == [x is None for x in alone]
    assert np.isnan(inverses[singular]).all()
    assert inverses[~singular].tobytes() == lu[~singular].tobytes()
    assert all(x is None or x.tobytes() == inverse.tobytes() for x, inverse in zip(alone, lu))
