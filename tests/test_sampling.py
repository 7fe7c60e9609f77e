"""Block samplers against the contracts they keep.

``sample_members`` must give the members of one-proposal-at-a-time loops
bit for bit and leave the generator exactly where the loop leaves it, so the
reference loop below is its sampling contract. It keeps it by construction:
each round draws one proposal per missing member, and ``lincomb`` gives each
member of a stack the bits of its row alone. The signed-contraction
sampler draws natively from the unit ball through the Potapov-Ginzburg map;
its contract is determinism for a given seed, members that pass both of its
acceptance tests, and a typed error past its attempt cap.
"""

import itertools

import numpy as np
import pytest

from lftdom import (
    InternalCheckError,
    OperatorSpace,
    Verdict,
    full_space,
    hyperplane_complement_domain,
    invertibles_domain,
    quadric_domain,
    signature_from_projection,
    symmetric_space,
    upper_triangular_space,
    whole_space_domain,
)
from lftdom import sampling as samp
from lftdom.linalg import hermitian_margin, singular_test


def loop_members(rng, dom, count, margin=0.0):
    """``count`` one-member rejection loops, one proposal judged per step."""
    members = []
    for _ in range(count):
        for _ in range(samp.DOMAIN_ATTEMPTS):
            z = samp.random_space_member(rng, dom.space)
            verdict, smin = dom.membership_margin(z)
            if verdict is Verdict.MEMBER and smin > margin:
                members.append(z)
                break
        else:
            raise InternalCheckError("no member")
    return members


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_stream(rng, ref):
    """Whether two generators stand at the same point of the same stream."""

    def flat(state):
        if isinstance(state, dict):
            return [(key, flat(value)) for key, value in sorted(state.items())]
        return np.asarray(state).tolist()

    return flat(rng.bit_generator.state) == flat(ref.bit_generator.state)


def twin_generators(seed, bit_generator=np.random.PCG64):
    return (np.random.Generator(bit_generator(seed)) for _ in range(2))


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.MT19937, np.random.SFC64]


def dense_space():
    # each lincomb entry sums nine rounded products, so one product over many
    # rows could round differently from the product for one row
    rng = np.random.default_rng(99)
    return OperatorSpace(3, 3, list(samp.random_matrix(rng, 9, 9).reshape(9, 3, 3)), label="dense")


DOMAINS = {
    "full-square": lambda: invertibles_domain(full_space(2, 2)),
    "full-rectangular": lambda: whole_space_domain(full_space(3, 2)),
    "column-hyperplane": lambda: hyperplane_complement_domain(np.ones((3, 1), dtype=complex), 0.7),
    "symmetric": lambda: invertibles_domain(symmetric_space(2)),
    "upper-triangular": lambda: invertibles_domain(upper_triangular_space(3)),
    "quadric": lambda: quadric_domain(3).domain,
    "dense-basis": lambda: invertibles_domain(dense_space()),
}


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_sample_members_is_the_loop_member_for_member(name):
    dom = DOMAINS[name]()
    cases = [(1, 0.0), (2, 0.0), (2, 0.05), (20, 0.05), (20, 0.3), (20, 0.5)]
    for bit_generator, seed in itertools.product(BIT_GENERATORS, range(3)):
        for count, margin in cases:
            rng, ref = twin_generators([seed, count], bit_generator)
            members = samp.sample_members(rng, dom, count, margin=margin)
            expected = loop_members(ref, dom, count, margin=margin)
            assert members.shape == (count, *dom.space.shape)
            assert all(same_bits(z, w) for z, w in zip(members, expected, strict=True))
            assert same_stream(rng, ref)
            assert same_bits(rng.uniform(size=3), ref.uniform(size=3))
            one = samp.random_domain_member(rng, dom, margin=margin)
            assert same_bits(one, loop_members(ref, dom, 1, margin=margin)[0])


def test_sample_members_keeps_a_buffered_half_word():
    # a 32-bit draw leaves half a word buffered; the rounds must leave it for the next draw
    dom = invertibles_domain(full_space(2, 2))
    for bit_generator in (np.random.PCG64, np.random.Philox):
        rng, ref = twin_generators(5, bit_generator)
        for _ in range(6):
            assert same_bits(rng.integers(0, 1000, dtype=np.int32), ref.integers(0, 1000, dtype=np.int32))
            members = samp.sample_members(rng, dom, 3, margin=0.5)
            assert all(same_bits(z, w) for z, w in zip(members, loop_members(ref, dom, 3, margin=0.5)))
            assert same_stream(rng, ref)
        assert same_bits(rng.integers(0, 2**31, 8, dtype=np.int32), ref.integers(0, 2**31, 8, dtype=np.int32))


def test_sample_members_without_rewind_draws_one_proposal_at_a_time():
    # a low-acceptance case takes many rounds; they must still give the loop's members and stream
    dom = invertibles_domain(full_space(2, 2))
    rng, ref = twin_generators(7, np.random.Philox)
    members = samp.sample_members(rng, dom, 20, margin=0.8)
    assert all(same_bits(z, w) for z, w in zip(members, loop_members(ref, dom, 20, margin=0.8)))
    assert same_stream(rng, ref)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_sample_members_judges_stacks_on_every_bit_generator(monkeypatch, bit_generator):
    dom = quadric_domain(3).domain
    calls = []
    judge = type(dom).membership_margin
    monkeypatch.setattr(type(dom), "membership_margin", lambda self, z: calls.append(np.ndim(z)) or judge(self, z))
    rng, ref = twin_generators(2, bit_generator)
    members = samp.sample_members(rng, dom, 20, margin=0.05)
    assert 1 <= len(calls) <= 3 and set(calls) == {3}
    assert all(same_bits(z, w) for z, w in zip(members, loop_members(ref, dom, 20, margin=0.05), strict=True))
    assert same_stream(rng, ref)


@pytest.mark.parametrize("count", [1, 3])
def test_an_unreachable_margin_raises_where_the_loop_does(count):
    dom = invertibles_domain(full_space(2, 2))
    rng, ref = twin_generators(3)
    with pytest.raises(InternalCheckError, match="could not sample a member"):
        samp.sample_members(rng, dom, count, margin=1e6)
    with pytest.raises(InternalCheckError):
        loop_members(ref, dom, count, margin=1e6)
    assert same_stream(rng, ref)


def test_sample_members_of_none_is_an_empty_stack():
    dom = whole_space_domain(full_space(3, 2))
    rng, ref = twin_generators(0)
    assert samp.sample_members(rng, dom, 0).shape == (0, 3, 2)
    assert same_stream(rng, ref)


def test_lincomb_of_rows_is_lincomb_of_each_row():
    # each member is also the tensordot of its row with the stacked basis,
    # the route that made the bytes of the pinned verify reports
    rng = np.random.default_rng(4)
    spaces = (full_space(3, 2), full_space(16, 16), symmetric_space(3), quadric_domain(4).domain.space, dense_space())
    for space, rows in itertools.product(spaces, (1, 2, 20, 500)):
        coeffs = rng.uniform(-1, 1, (rows, space.dim)) + 1j * rng.uniform(-1, 1, (rows, space.dim))
        stack = space.lincomb(coeffs)
        assert stack.shape == (rows, *space.shape)
        for z, row in zip(stack, coeffs, strict=True):
            assert same_bits(z, space.lincomb(row))
            assert same_bits(z, np.tensordot(row, space._stacked, axes=1))


PG_CASES = {
    "ball": np.zeros((2, 2), dtype=complex),
    "mixed": np.diag([1.0, 0.0]).astype(complex),
    "exterior": np.eye(2, dtype=complex),
}


@pytest.mark.parametrize("case", sorted(PG_CASES))
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_pg_members_are_the_same_for_the_same_seed(case, bit_generator):
    e = PG_CASES[case]
    for seed in range(3):
        rng, ref = twin_generators(seed, bit_generator)
        for count in (1, 8):
            members = samp.sample_pg_members(rng, e, count)
            assert members.shape == (count, 2, 2)
            assert same_bits(members, samp.sample_pg_members(ref, e, count))
            assert same_stream(rng, ref)


@pytest.mark.parametrize("case", sorted(PG_CASES))
def test_pg_members_pass_both_acceptance_tests(case):
    e = PG_CASES[case]
    j = signature_from_projection(e)
    members = samp.sample_pg_members(np.random.default_rng(12), e, 200)
    assert np.isfinite(members).all()
    assert (hermitian_margin(j - np.swapaxes(members.conj(), 1, 2) @ j @ members) > samp.PG_MIN_MARGIN).all()
    assert not singular_test(e @ members + np.eye(2) - e)[1].any()


def test_pg_sampler_rejects_a_non_projection_before_any_draw():
    rng, ref = twin_generators(9)
    with pytest.raises(ValueError, match="not idempotent"):
        samp.sample_pg_members(rng, np.diag([1.0, 0.5]).astype(complex), 1)
    assert same_stream(rng, ref)


@pytest.mark.parametrize("count", [1, 3])
def test_an_unreachable_signed_contraction_margin_raises_after_the_cap(monkeypatch, count):
    monkeypatch.setattr(samp, "PG_ATTEMPTS", 40)
    monkeypatch.setattr(samp, "PG_MIN_MARGIN", 1e9)
    rng, ref = twin_generators(8)
    with pytest.raises(InternalCheckError, match="signed-contraction"):
        samp.sample_pg_members(rng, PG_CASES["mixed"], count)
    # each of the count * PG_ATTEMPTS proposals draws a 2 x 2 complex matrix and its norm
    ref.random(count * 40 * (8 + 1))
    assert same_stream(rng, ref)
