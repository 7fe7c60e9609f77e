"""Tests for LFT maps, domain specs, membership, and the stock constructors."""

import traceback

import numpy as np
import pytest

from lftdom import (
    Domain,
    LFTMap,
    OperatorSpace,
    ShapeError,
    SingularMatrixError,
    SpaceClosureError,
    Verdict,
    connectivity_class,
    det_membership,
    diagonal_space,
    full_space,
    hyperplane_complement_domain,
    invert,
    invertibles_domain,
    lft_apply,
    lft_images,
    operator_norm,
    projection_domain,
    quadric_domain,
    rank_one_pairing_domain,
    symmetry_direct,
    try_invert,
    upper_triangular_space,
    whole_space_domain,
)
from lftdom.domains import LFT_SINGULAR
from lftdom.sampling import random_domain_member

E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def rand_c(rng, rows, cols):
    return rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))


# ---------------------------------------------------------------------------
# LFT maps


def test_lft_identity_and_reciprocal():
    rng = np.random.default_rng(31)
    z = rand_c(rng, 2, 3)
    ident = LFTMap.identity(2, 3)
    assert operator_norm(ident(z) - z) <= 1e-14
    zi = rand_c(rng, 2, 2) + 2 * np.eye(2)
    recip = LFTMap(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert operator_norm(recip(zi) - np.linalg.inv(zi)) <= 1e-10


def test_lft_scalar_moebius_value():
    t = LFTMap(np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[2.0]]))
    assert abs(lft_apply(t, np.array([[0.0]]))[0, 0] - 0.5) <= 1e-15


def test_lft_singular_denominator_raises():
    recip = LFTMap(np.zeros((2, 2)), np.eye(2), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(SingularMatrixError):
        recip(np.diag([1.0, 0.0]).astype(complex))


def test_lft_compose_matches_pointwise_composition():
    rng = np.random.default_rng(32)
    for _ in range(20):
        outer = LFTMap(
            rand_c(rng, 2, 2) + 2 * np.eye(2),
            rand_c(rng, 2, 2),
            0.3 * rand_c(rng, 2, 2),
            rand_c(rng, 2, 2) + 2 * np.eye(2),
        )
        inner = LFTMap(
            rand_c(rng, 2, 2) + 2 * np.eye(2),
            rand_c(rng, 2, 2),
            0.3 * rand_c(rng, 2, 2),
            rand_c(rng, 2, 2) + 2 * np.eye(2),
        )
        z = 0.5 * rand_c(rng, 2, 2)
        both = outer.compose(inner)
        assert operator_norm(both(z) - outer(inner(z))) <= 1e-9
        # composition multiplies the block coefficient matrices
        assert np.allclose(
            both.coefficient_matrix(),
            outer.coefficient_matrix() @ inner.coefficient_matrix(),
        )


def test_lft_coefficient_matrix_round_trip():
    rng = np.random.default_rng(33)
    t = LFTMap(rand_c(rng, 2, 2), rand_c(rng, 2, 3), rand_c(rng, 3, 2), rand_c(rng, 3, 3))
    back = LFTMap.from_coefficient_matrix(t.coefficient_matrix(), 2, 3)
    for blk, other in zip(
        (t.a, t.b, t.c, t.d), (back.a, back.b, back.c, back.d)
    ):
        assert np.array_equal(blk, other)


def test_lft_rejects_non_finite_blocks():
    # a NaN block gave NaN images, and an inf block warned in matmul
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            LFTMap([[bad]], [[0.0]], [[0.0]], [[1.0]])


def test_lft_rejects_inconsistent_blocks():
    with pytest.raises(ShapeError):
        LFTMap(np.eye(2), np.ones((2, 3)), np.ones((3, 2)), np.eye(2))


def stacked(maps):
    """The maps as one stack of maps."""
    return LFTMap._of_blocks(*(np.stack([getattr(t, b) for t in maps]) for b in "abcd"), maps[0].tol)


def random_maps(rng, count, k, h):
    return [
        LFTMap(rand_c(rng, k, k), rand_c(rng, k, h), rand_c(rng, h, k), rand_c(rng, h, h) + 2 * np.eye(h))
        for _ in range(count)
    ]


@pytest.mark.parametrize("k, h", [(2, 2), (3, 1), (1, 3), (4, 4)])
def test_a_stack_of_maps_gives_each_item_the_bits_of_its_call_alone(k, h):
    rng = np.random.default_rng(38)
    maps = random_maps(rng, 6, k, h)
    # map 3 has c = 0 and a singular d, so c z + d is singular at every z
    u, sv, vh = np.linalg.svd(maps[3].d)
    sv[-1] = 0.0
    maps[3] = LFTMap(maps[3].a, maps[3].b, np.zeros((h, k)), (u * sv) @ vh)
    z = np.stack([rand_c(rng, k, h) for _ in maps])
    images, singular = lft_apply(stacked(maps), z)
    assert singular.tolist() == [try_invert(t.c @ zi + t.d) is None for t, zi in zip(maps, z)]
    assert singular.tolist() == [False, False, False, True, False, False]
    assert np.isnan(images[3]).all()
    with pytest.raises(SingularMatrixError):
        lft_apply(maps[3], z[3])
    for i in (0, 1, 2, 4, 5):
        t, zi = maps[i], z[i]
        assert images[i].tobytes() == lft_apply(t, zi).tobytes()
        # a single call keeps the bits of the formula written out
        assert lft_apply(t, zi).tobytes() == ((t.a @ zi + t.b) @ invert(t.c @ zi + t.d, t.tol, "")).tobytes()
    # lft_images gives lft_apply's images, and raises its error, through
    # invert, where the stack has a singular item
    regular = [0, 1, 2, 4, 5]
    images_only = lft_images(stacked([maps[i] for i in regular]), z[regular])
    assert images_only.tobytes() == images[regular].tobytes()
    assert lft_images(maps[0], z[0]).tobytes() == lft_apply(maps[0], z[0]).tobytes()
    with pytest.raises(SingularMatrixError) as exc:
        lft_images(stacked(maps), z)
    assert str(exc.value) == LFT_SINGULAR
    assert traceback.extract_tb(exc.value.__traceback__)[-1].name == "invert"
    # a stack of maps takes exactly its own number of points
    for bad in (z[0], z[:5], z[None]):
        for evaluate in (lft_apply, lft_images):
            with pytest.raises(ShapeError):
                evaluate(stacked(maps), bad)


def test_coefficient_matrices_are_assembled_as_blocks_also_on_a_stack():
    rng = np.random.default_rng(39)
    maps = random_maps(rng, 4, 3, 2)
    for t in maps:
        assert t.coefficient_matrix().tobytes() == np.block([[t.a, t.b], [t.c, t.d]]).tobytes()
    stack = stacked(maps)
    assert stack.coefficient_matrix().tobytes() == np.stack([t.coefficient_matrix() for t in maps]).tobytes()
    assert (stack.dim_k, stack.dim_h) == (3, 2)
    with pytest.raises(ShapeError):
        LFTMap._of_blocks(stack.a, stack.b[:3], stack.c, stack.d, stack.tol)


# ---------------------------------------------------------------------------
# Domain construction


def test_whole_space_domain_has_zero_kernel():
    dom = whole_space_domain(full_space(2, 2))
    assert operator_norm(dom.x0) == 0.0
    assert dom.membership(rand_c(np.random.default_rng(0), 2, 2)) is Verdict.MEMBER


def test_invertibles_domain_kernel_is_identity_at_identity():
    dom = invertibles_domain(full_space(2, 2))
    assert operator_norm(dom.x0 - np.eye(2)) <= 1e-14
    assert dom.membership(2 * np.eye(2, dtype=complex)) is Verdict.MEMBER
    assert dom.membership(np.diag([1.0, 0.0]).astype(complex)) is Verdict.SINGULAR
    assert dom.membership(E12) is Verdict.SINGULAR


def test_invertibles_domain_requires_power_algebra():
    off = OperatorSpace(2, 2, [E12, E21], label="off-diagonal")
    with pytest.raises(SpaceClosureError):
        invertibles_domain(off)


def test_domain_membership_flags_points_outside_the_space():
    dom = invertibles_domain(diagonal_space(2))
    assert dom.membership(np.diag([1.0, 2.0]).astype(complex)) is Verdict.MEMBER
    assert dom.membership(np.eye(2) + E12) is Verdict.NOT_IN_SPACE


def test_domain_base_point_must_be_member():
    space = full_space(2, 2)
    with pytest.raises(SingularMatrixError):
        Domain(space, np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0]))
    with pytest.raises(SpaceClosureError):
        Domain(diagonal_space(2), np.eye(2), np.zeros((2, 2)), np.eye(2) + E12)


def test_domain_quadratic_closure_gate():
    off = OperatorSpace(2, 2, [E12, E21], label="off-diagonal")
    z0 = E12 + E21
    # x0 = z0^-1 is itself off-diagonal, so the quadratic products stay inside
    dom = Domain(off, np.eye(2), np.zeros((2, 2)), z0)
    assert dom.membership(z0) is Verdict.MEMBER
    # forcing x0 = I breaks closure: E12 E21 has a diagonal entry
    with pytest.raises(SpaceClosureError):
        Domain(off, np.eye(2), np.eye(2) - z0, z0)


def test_full_space_domain_at_the_largest_size_builds_at_once(monkeypatch):
    # a full space holds every product, so only the base point is projected
    rng = np.random.default_rng(29)
    c = rand_c(rng, 16, 16)
    z0 = rand_c(rng, 16, 16)
    projections = []
    contains = OperatorSpace.contains
    monkeypatch.setattr(
        OperatorSpace, "contains", lambda *args: projections.append(1) or contains(*args)
    )
    dom = Domain(full_space(16, 16), c, np.eye(16) - c @ z0, z0)
    assert len(projections) == 1
    assert dom.membership(z0) is Verdict.MEMBER
    assert operator_norm(dom.x0 - c) <= 1e-9 * operator_norm(c)


def test_every_stock_domain_contains_its_base_point():
    doms = [
        whole_space_domain(full_space(2, 2)),
        invertibles_domain(full_space(3, 3)),
        projection_domain(full_space(2, 2), np.diag([1.0, 0.0])),
        hyperplane_complement_domain(np.array([1.0, 0.0]), 1.0),
        rank_one_pairing_domain(
            full_space(2, 2),
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            0.6,
        ),
        quadric_domain(3).domain,
    ]
    for dom in doms:
        assert dom.membership(dom.z0) is Verdict.MEMBER


# ---------------------------------------------------------------------------
# Projection, hyperplane, rank-one constructors


def test_projection_domain_base_point_and_kernel():
    e = np.diag([1.0, 0.0]).astype(complex)
    dom = projection_domain(full_space(2, 2), e)
    assert np.allclose(dom.z0, e)
    assert operator_norm(dom.x0 - e) <= 1e-12


def test_projection_domain_rejects_non_idempotent():
    with pytest.raises(ValueError):
        projection_domain(full_space(2, 2), np.array([[1.0, 0.0], [0.0, 0.5]]))


def test_hyperplane_domain_verdicts():
    dom = hyperplane_complement_domain(np.array([1.0, 0.0]), 1.0)
    assert dom.membership(np.array([[0.0], [5.0]])) is Verdict.MEMBER
    assert dom.membership(np.array([[-1.0], [0.0]])) is Verdict.SINGULAR
    with pytest.raises(ValueError):
        hyperplane_complement_domain(np.zeros(2), 1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            hyperplane_complement_domain(np.array([1.0, 0.0]), bad)


def test_rank_one_domain_scalar_denominator_test():
    rng = np.random.default_rng(34)
    x = np.array([1.0, 0.0], dtype=complex)
    y = (np.array([1.0, 1j], dtype=complex)) / np.sqrt(2.0)
    d = 0.6
    dom = rank_one_pairing_domain(full_space(2, 2), x, y, d)
    xc = x.reshape(-1, 1)
    yc = y.reshape(-1, 1)
    for _ in range(200):
        z = rand_c(rng, 2, 2)
        scalar = d + complex((yc.conj().T @ z @ xc)[0, 0])
        invertible = try_invert(dom.denominator(z)) is not None
        assert invertible == (abs(scalar) > 1e-10)


def test_rank_one_domain_rejects_bad_parameters():
    space = full_space(2, 2)
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    with pytest.raises(ValueError):
        rank_one_pairing_domain(space, 2 * x, y, 0.5)
    for bad in (0.0, 1e-11):
        with pytest.raises(ValueError, match="nonzero"):
            rank_one_pairing_domain(space, x, y, bad)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            rank_one_pairing_domain(space, x, y, bad)
    with pytest.raises(SpaceClosureError):
        rank_one_pairing_domain(diagonal_space(2), x, y, 0.5)


# ---------------------------------------------------------------------------
# Determinant membership


def test_det_membership_scalar_case():
    space = full_space(1, 1)
    dom = Domain(space, np.array([[2.0]]), np.array([[1.0]]), np.zeros((1, 1)))
    assert abs(det_membership(dom, np.array([[1.0]])) - 3.0) <= 1e-14
    assert abs(det_membership(dom, np.array([[-0.5]]))) <= 1e-14


def test_det_membership_constant_for_zero_c():
    dom = whole_space_domain(full_space(2, 2))
    rng = np.random.default_rng(35)
    for _ in range(5):
        assert abs(det_membership(dom, rand_c(rng, 2, 2)) - 1.0) <= 1e-14


def test_det_membership_requires_invertible_d():
    dom = invertibles_domain(full_space(2, 2))
    with pytest.raises(SingularMatrixError):
        det_membership(dom, np.eye(2))


def test_det_membership_scales_det_of_denominator():
    # det(c z + d) = det(d) f(z), so both vanish together
    rng = np.random.default_rng(36)
    space = full_space(3, 3)
    for _ in range(50):
        c = rand_c(rng, 3, 3)
        d = rand_c(rng, 3, 3) + 2 * np.eye(3)
        dom = Domain(space, c, d, np.zeros((3, 3)))
        z = rand_c(rng, 3, 3)
        f = det_membership(dom, z)
        assert abs(f * np.linalg.det(d) - np.linalg.det(c @ z + d)) <= 1e-8 * (1 + abs(f))


def test_det_membership_agrees_with_svd_outside_band():
    rng = np.random.default_rng(37)
    space = full_space(3, 3)
    c = rand_c(rng, 3, 3)
    d = rand_c(rng, 3, 3) + 2 * np.eye(3)
    dom = Domain(space, c, d, np.zeros((3, 3)))
    band = 10 * 1e-10
    checked = 0
    for _ in range(500):
        z = rand_c(rng, 3, 3)
        den = dom.denominator(z)
        smin = np.linalg.svd(den, compute_uv=False)[-1]
        f = abs(det_membership(dom, z))
        if smin <= band or f <= band:
            continue
        checked += 1
        assert (smin > 1e-10) == (f > 1e-10)
    assert checked >= 450


def test_det_membership_of_a_stack_is_the_value_of_each_item():
    rng = np.random.default_rng(40)
    dom = Domain(full_space(3, 3), rand_c(rng, 3, 3), rand_c(rng, 3, 3) + 2 * np.eye(3), np.zeros((3, 3)))
    z = np.stack([rand_c(rng, 3, 3) for _ in range(7)])
    values = det_membership(dom, z)
    assert values.shape == (7,)
    for zi, f in zip(z, values):
        one = det_membership(dom, zi)
        assert type(one) is complex and complex(f) == one
        assert np.array(one).tobytes() == f.tobytes()


# ---------------------------------------------------------------------------
# Connectivity report


def test_connectivity_always_holds_in_finite_dimensions():
    for dom in (
        whole_space_domain(full_space(2, 2)),
        invertibles_domain(full_space(2, 2)),
        quadric_domain(3).domain,
    ):
        rep = connectivity_class(dom)
        assert rep.compact_coefficients and rep.polynomial_identity
        assert rep.connected


def test_connectivity_range_conditions():
    space = full_space(2, 2)
    rep = connectivity_class(Domain(space, np.eye(2), np.eye(2), np.zeros((2, 2))))
    assert rep.full_space_closed_range and rep.range_inclusion
    rep = connectivity_class(whole_space_domain(space))
    assert rep.full_space_closed_range and not rep.range_inclusion
    rep = connectivity_class(quadric_domain(3).domain)
    assert not rep.full_space_closed_range and not rep.range_inclusion


# ---------------------------------------------------------------------------
# Quadric model


def test_quadric_embedding_is_linear_and_faithful():
    rng = np.random.default_rng(38)
    model = quadric_domain(3)
    for _ in range(10):
        zvec = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        z = model.embed(zvec)
        assert np.allclose(model.unembed(z), zvec)
        # the spin identity: the square of the embedding is the bilinear form
        form = model.quadric_form(zvec)
        assert operator_norm(z @ z - form * np.eye(model.matrix_dim)) <= 1e-12


def test_quadric_form_and_membership():
    model = quadric_domain(2)
    z = np.array([1.0, 1j], dtype=complex)
    assert abs(model.quadric_form(z)) <= 1e-15
    assert model.domain.membership(model.embed(z)) is Verdict.SINGULAR
    z = np.array([1.0, 2.0], dtype=complex)
    assert model.domain.membership(model.embed(z)) is Verdict.MEMBER


def test_stacked_membership_matches_the_scalar_verdicts():
    rng = np.random.default_rng(41)
    model = quadric_domain(3)
    upper = Domain(
        upper_triangular_space(3),
        np.triu(rand_c(rng, 3, 3)),
        np.eye(3, dtype=complex),
        np.zeros((3, 3), dtype=complex),
    )
    null = model.embed([1.0, 1j, 0.0])
    strict_lower = np.tril(rand_c(rng, 3, 3), -1)
    for dom, singular, outside in (
        (model.domain, null, rand_c(rng, 4, 4)),
        (upper, -invert(upper.c, upper.tol, "unused"), np.eye(3) + strict_lower),
    ):
        members = [random_domain_member(rng, dom) for _ in range(3)]
        stack = np.stack(members[:1] + [singular, outside] + members[1:] + [singular])
        verdicts, smin = dom.membership_margin(stack)
        assert verdicts.shape == (6,) and smin.shape == (6,)
        assert list(verdicts) == [dom.membership(z) for z in stack]
        assert {*verdicts} == {Verdict.MEMBER, Verdict.SINGULAR, Verdict.NOT_IN_SPACE}
        for z, item_smin, verdict in zip(stack, smin, verdicts):
            if verdict is not Verdict.NOT_IN_SPACE:
                assert item_smin == dom.membership_margin(z)[1]
        assert dom.membership_margin(outside) == (Verdict.NOT_IN_SPACE, None)
        assert list(dom.membership(stack.reshape(2, 3, *dom.space.shape)).ravel()) == list(verdicts)


def test_quadric_closed_form_symmetry_matches_matrix_route():
    rng = np.random.default_rng(39)
    model = quadric_domain(3)
    dom = model.domain
    hits = 0
    while hits < 20:
        yv = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        zv = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
        if abs(model.quadric_form(yv)) < 1e-2 or abs(model.quadric_form(zv)) < 1e-2:
            continue
        hits += 1
        closed = model.closed_form_symmetry(yv, zv)
        matrix_route = model.unembed(symmetry_direct(dom, model.embed(yv), model.embed(zv)))
        assert np.linalg.norm(closed - matrix_route) <= 1e-9 * (1 + np.linalg.norm(zv))


def test_quadric_closed_form_rejects_null_vectors():
    model = quadric_domain(2)
    with pytest.raises(SingularMatrixError):
        model.closed_form_symmetry(np.array([1.0, 0.0]), np.array([1.0, 1j]))
