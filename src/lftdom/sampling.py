"""Random generators for members of the various domains.

Every function takes a numpy Generator so callers control determinism.
Matrix entries draw real and imaginary parts uniformly from [-1, 1]; the
shaped samplers rescale or reject until the target set is hit, with attempt
caps that raise instead of looping forever.
"""

import numpy as np

from .exceptions import InternalCheckError
from .linalg import DEFAULT_TOL, dagger, hermitian_margin, operator_norm, principal_sqrt, singular_test, try_invert
from .domains import Verdict
from .automorphisms import signature_from_projection

# draws each rejection sampler makes before it gives up
INVERTIBLE_ATTEMPTS = 200
DOMAIN_ATTEMPTS = 2000
REACH_ATTEMPTS = 500
HYPERBOLIC_ATTEMPTS = 2000
PG_ATTEMPTS = 20000
MAX_PULL = 0.8
# least form_margin of a signed-contraction sample
PG_MIN_MARGIN = 1e-6
# uniform bounds of the norm, smallest-singular-value and column scales of
# signed-contraction proposals, and the least norm and smallest singular
# value that a proposal needs to be scaled
PG_SCALES = ((0.05, 0.9), (1.05, 1.8), (0.1, 2.0))
PG_MIN_NORM = 1e-12
PG_MIN_SMIN = 1e-8


def random_matrix(rng, rows, cols):
    re = rng.uniform(-1.0, 1.0, (rows, cols))
    im = rng.uniform(-1.0, 1.0, (rows, cols))
    return re + 1j * im


def random_unitary(rng, n):
    q, r = np.linalg.qr(random_matrix(rng, n, n))
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-12] = 1.0
    return q * (d / np.abs(d))


def random_space_member(rng, space, scale=1.0):
    coords = rng.uniform(-1.0, 1.0, space.dim) + 1j * rng.uniform(-1.0, 1.0, space.dim)
    return space.lincomb(scale * coords)


def random_invertible_member(rng, space, tol=DEFAULT_TOL):
    """(z, z^-1) for a member z with ||z^-1|| < 1e6; the inverse is the one that judged z."""
    if not space.is_square:
        raise ValueError("invertible members need a square space")
    for _ in range(INVERTIBLE_ATTEMPTS):
        z = random_space_member(rng, space)
        inv = try_invert(z, tol)
        if inv is not None and operator_norm(inv) < 1e6:
            return z, inv
    raise InternalCheckError("could not sample an invertible member")


def _put_back(rng, state, doubles):
    """Set the stream to ``state`` moved on by ``doubles`` double draws.

    On every numpy bit generator ``uniform`` and ``random`` take one double
    per value and leave the buffered 32-bit half word alone, so restoring
    ``state`` (which carries that half word) and drawing the doubles again
    is exact.
    """
    rng.bit_generator.state = state
    rng.random(doubles)


def sample_members(rng, dom, count, scale=1.0, margin=0.0):
    """``count`` members whose denominator clears ``margin``, as a (count, k, h) stack.

    The members, and the stream left behind, are exactly those of ``count``
    one-member rejection loops: each proposal is ``random_space_member``'s
    draw, and a member still missing after DOMAIN_ATTEMPTS proposals raises
    InternalCheckError. Proposals come in blocks, each one ``uniform`` call,
    one stacked ``lincomb`` and one stacked ``membership_margin``. The first
    block is ``count`` proposals, so it never draws ahead; each later one is
    twice what the share of members seen so far asks for, and one that draws
    past the last member puts the stream back after it (``_put_back``), on
    every bit generator.
    """
    space = dom.space
    members = np.empty((count, *space.shape), dtype=complex)
    got = drawn = misses = 0  # misses: proposals since the last member
    while got < count:
        need = count - got
        size = 2 * need * (drawn + 1) // (got + 1) if drawn else need
        size = min(size, DOMAIN_ATTEMPTS - misses)
        state = rng.bit_generator.state if size > need else None
        draws = rng.uniform(-1.0, 1.0, (size, 2, space.dim))
        zs = space.lincomb(scale * (draws[:, 0] + 1j * draws[:, 1]))
        verdicts, smin = dom.membership_margin(zs)
        hits = np.flatnonzero((verdicts == Verdict.MEMBER) & (smin > margin))[:need]
        if hits.size == need and hits[-1] + 1 < size:
            _put_back(rng, state, (hits[-1] + 1) * 2 * space.dim)
        members[got : got + hits.size] = zs[hits]
        got += hits.size
        drawn += size
        misses = misses + size if hits.size == 0 else size - 1 - hits[-1]
        if misses >= DOMAIN_ATTEMPTS:
            raise InternalCheckError(f"could not sample a member of {dom.label or 'the domain'}")
    return members


def random_domain_member(rng, dom, scale=1.0, margin=0.0):
    """Rejection-sample a member whose denominator clears the given margin: ``sample_members`` of one."""
    return sample_members(rng, dom, 1, scale, margin)[0]


def random_ball_point(rng, rows, cols, max_norm=0.9):
    z = random_matrix(rng, rows, cols)
    top = operator_norm(z)
    if top < 1e-12:
        return np.zeros((rows, cols), dtype=complex)
    return (rng.uniform(0.0, max_norm) / top) * z


def random_target_in_reach(rng, dom):
    """A member z with ||x0 (z - z0)|| below MAX_PULL, for series-based maps."""
    x0_norm = operator_norm(dom.x0)
    for _ in range(REACH_ATTEMPTS):
        d = random_space_member(rng, dom.space)
        pull = operator_norm(dom.x0 @ d)
        if pull > 1e-12:
            d = d * (rng.uniform(0.1, 1.0) * MAX_PULL / pull)
        z = dom.z0 + d
        if dom.membership(z) is Verdict.MEMBER:
            if x0_norm < 1e-12 or operator_norm(dom.x0 @ (z - dom.z0)) < MAX_PULL:
                return z
    raise InternalCheckError("could not sample a target within reach of the base point")


def random_siegel_member(rng, spec):
    z1 = random_matrix(rng, spec.dim_k, spec.dim_h)
    s = rng.uniform(1.05, 2.0)
    u = random_unitary(rng, spec.dim_h)
    gram = np.eye(spec.dim_h, dtype=complex) + z1.conj().T @ z1
    z2 = s * (u @ principal_sqrt(gram, spec.tol))
    return spec.stack(z1, z2)


def random_product_member(rng, spec):
    z1 = random_matrix(rng, spec.dim_k, spec.dim_h)
    t = rng.uniform(0.1, 4.0)
    u = random_unitary(rng, spec.dim_h)
    gram = z1.conj().T @ z1 + t * np.eye(spec.dim_h, dtype=complex)
    z2 = u @ principal_sqrt(gram, spec.tol)
    return spec.stack(z1, z2)


def random_hyperbolic_form(rng, n, degenerate=False):
    """J = V diag(1, t, -1) V*, V unitary, t in [-2, 2]^(n-2); ``degenerate`` puts t[0] below -0.2."""
    interior = rng.uniform(-2.0, 2.0, n - 2)
    if degenerate:
        interior[0] = -abs(interior[0]) - 0.2
    v = random_unitary(rng, n)
    return (v * np.concatenate([[1.0], interior, [-1.0]])) @ v.conj().T


def random_hyperbolic_member(rng, spec, degenerate=False):
    """A vector with (Jz, z) < 0; optionally with no e or f component.

    Degenerate samples need the compressed form on the orthocomplement to
    have a negative direction; without one no such member exists.
    """
    nk = spec.dim - 2
    if degenerate:
        if nk == 0:
            raise ValueError("no room for degenerate members when J is 2 x 2")
        eigvals, eigvecs = np.linalg.eigh(spec.b)
        neg = np.nonzero(eigvals < -1e-6)[0]
        if neg.size == 0:
            raise ValueError("no degenerate members: the compressed form has no negative direction")
        for _ in range(HYPERBOLIC_ATTEMPTS):
            w = eigvecs[:, neg[0]] * rng.uniform(0.5, 2.0)
            w = w + 0.2 * (rng.uniform(-1, 1, nk) + 1j * rng.uniform(-1, 1, nk))
            q = float(np.vdot(w, spec.b @ w).real)
            if q < -spec.tol.eq_tol:
                coords = np.concatenate([[0.0], w, [0.0]])
                return spec.frame @ coords.astype(complex)
        raise InternalCheckError("could not sample a degenerate hyperbolic member")
    for _ in range(HYPERBOLIC_ATTEMPTS):
        w = (rng.uniform(-1, 1, nk) + 1j * rng.uniform(-1, 1, nk)) if nk else np.zeros(0)
        q = float(np.vdot(w, spec.b @ w).real) if nk else 0.0
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        need = abs(alpha) ** 2 + q
        beta_mod = np.sqrt(max(need, 0.0) + rng.uniform(0.1, 2.0))
        phase = np.exp(2j * np.pi * rng.uniform())
        coords = np.concatenate([[alpha], w, [beta_mod * phase]])
        z = spec.frame @ coords.astype(complex)
        if spec.form(z).real < -spec.tol.eq_tol:
            return z
    raise InternalCheckError("could not sample a hyperbolic member")


def random_pg_member(rng, e, tol=DEFAULT_TOL):
    """Rejection-sample the domain Z*JZ < J, J = I - 2E, with denominator EZ + I - E invertible.

    Cycles through ball-sized, exterior-sized, and anisotropic proposals so
    the sampler works whatever the signature of J: proposal ``attempt``
    draws a random matrix and then, by kind ``attempt % 3``, one scale for
    its norm, one for its smallest singular value, or n column scales, from
    PG_SCALES. A proposal whose norm or smallest singular value is below
    PG_MIN_NORM or PG_MIN_SMIN is rejected before its scale is drawn.

    The first three proposals, one of each kind, are judged one at a time:
    the ball and the exterior accept among them. Later proposals come in
    blocks of 3, 6, 12, ... (see ``_pg_blocks``) on every bit generator,
    which give the same member and leave the stream in the same place.
    """
    e = np.asarray(e, dtype=complex)
    n = e.shape[0]
    j = signature_from_projection(e)
    d_blk = np.eye(n, dtype=complex) - e
    z = _pg_one_at_a_time(rng, e, j, d_blk, tol, 0, 3)
    if z is None:
        z = _pg_blocks(rng, e, j, d_blk, tol, 3)
    if z is None:
        raise InternalCheckError("could not sample the signed-contraction domain")
    return z


def _pg_accepts(zs, e, j, d_blk, tol):
    """Per item of a stack: Z*JZ < J by more than PG_MIN_MARGIN, with EZ + I - E invertible."""
    accepts = hermitian_margin(j - dagger(zs) @ j @ zs) > PG_MIN_MARGIN
    # only the items inside the form need the denominator's verdict
    accepts[accepts] = ~singular_test(e @ zs[accepts] + d_blk, tol)[1]
    return accepts


def _pg_one_at_a_time(rng, e, j, d_blk, tol, start, stop):
    """The first member among ``random_pg_member``'s proposals start, ..., stop - 1, or None."""
    n = e.shape[0]
    for attempt in range(start, stop):
        z = random_matrix(rng, n, n)
        kind = attempt % 3
        if kind == 0:
            top = operator_norm(z)
            if top < PG_MIN_NORM:
                continue
            z = (rng.uniform(*PG_SCALES[0]) / top) * z
        elif kind == 1:
            smin = float(singular_test(z, tol)[0])
            if smin < PG_MIN_SMIN:
                continue
            z = (rng.uniform(*PG_SCALES[1]) / smin) * z
        else:
            z = z @ np.diag(rng.uniform(*PG_SCALES[2], n))
        if _pg_accepts(z[None], e, j, d_blk, tol)[0]:
            return z
    return None


def _pg_blocks(rng, e, j, d_blk, tol, start):
    """``_pg_one_at_a_time`` from ``start`` (a multiple of 3) on, in blocks of 3, 6, 12, ... proposals.

    Each block is drawn by one ``uniform`` call whose bounds lay out every
    proposal's matrix and scales in the order the one-at-a-time draws take
    them, and judged as stacks; the stream is then put back after the
    member. A block in which a proposal rejected before its scale comes
    before the member is judged one at a time instead, from the state saved
    before it.
    """
    n = e.shape[0]
    cell = 2 * n * n  # the real and imaginary parts of a proposal's matrix
    # the bounds of one proposal of each kind, matrix then scales, and their lengths
    low, high = [], []
    for (lo, hi), width in zip(PG_SCALES, (1, 1, n)):
        low += [np.full(cell, -1.0), np.full(width, lo)]
        high += [np.ones(cell), np.full(width, hi)]
    low, high = np.concatenate(low), np.concatenate(high)
    doubles = cell + np.array([1, 1, n])
    size = 3
    while start < PG_ATTEMPTS:
        size = min(size, PG_ATTEMPTS - start)
        # the kinds repeat in rounds of three, and so do the bounds
        lengths = np.resize(doubles, size)
        ends = np.cumsum(lengths)
        offsets = ends - lengths
        state = rng.bit_generator.state
        draws = rng.uniform(np.resize(low, ends[-1]), np.resize(high, ends[-1]))
        parts = draws[offsets[:, None] + np.arange(cell)].reshape(size, 2, n, n)
        zs = parts[:, 0] + 1j * parts[:, 1]
        unscaled = np.zeros(size, dtype=bool)  # rejected before drawing a scale
        for kind, floor in ((0, PG_MIN_NORM), (1, PG_MIN_SMIN)):
            at = np.arange(kind, size, 3)
            picked = zs[at]
            gauge = operator_norm(picked) if kind == 0 else singular_test(picked, tol)[0]
            unscaled[at] = gauge < floor
            # an unscaled proposal is rejected below; dividing it by 1 only avoids 0 / 0
            zs[at] = (draws[offsets[at] + cell] / np.where(unscaled[at], 1.0, gauge))[:, None, None] * picked
        at = np.arange(2, size, 3)
        cols = np.zeros((at.size, n, n))
        cols[:, np.arange(n), np.arange(n)] = draws[offsets[at, None] + cell + np.arange(n)]
        zs[at] = zs[at] @ cols
        hits = np.flatnonzero(_pg_accepts(zs, e, j, d_blk, tol) & ~unscaled)
        member = hits[0] if hits.size else size
        if unscaled[:member].any():
            rng.bit_generator.state = state
            return _pg_one_at_a_time(rng, e, j, d_blk, tol, start, PG_ATTEMPTS)
        if hits.size:
            if member + 1 < size:
                _put_back(rng, state, ends[member])
            return zs[member]
        start += size
        size *= 2
    return None
