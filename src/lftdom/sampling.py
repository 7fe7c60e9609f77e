"""Random generators for members of the various domains.

Every function takes a numpy Generator so callers control determinism.
Matrix entries draw real and imaginary parts uniformly from [-1, 1]; the
shaped samplers rescale or reject until the target set is hit, with attempt
caps that raise instead of looping forever.
"""

import numpy as np

from .exceptions import InternalCheckError
from .linalg import DEFAULT_TOL, dagger, hermitian_margin, operator_norm, principal_sqrt, singular_test, try_invert
from .domains import Verdict, lft_apply
from .automorphisms import potapov_ginzburg_map

# draws each rejection sampler makes before it gives up
INVERTIBLE_ATTEMPTS = 200
DOMAIN_ATTEMPTS = 2000
REACH_ATTEMPTS = 500
HYPERBOLIC_ATTEMPTS = 2000
PG_ATTEMPTS = 20000
MAX_PULL = 0.8
# least form_margin of a signed-contraction sample
PG_MIN_MARGIN = 1e-6
# uniform bounds of the norm of the ball points that signed-contraction
# proposals are the Potapov-Ginzburg images of
PG_BALL_NORMS = (0.05, 0.95)


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


def sample_members(rng, dom, count, margin=0.0):
    """``count`` members whose denominator clears ``margin``, as a (count, k, h) stack.

    The members, and the stream left behind, are exactly those of ``count``
    one-member rejection loops: each proposal is ``random_space_member``'s
    draw, and a member still missing after DOMAIN_ATTEMPTS proposals raises
    InternalCheckError. Proposals come in rounds, each one ``uniform`` call,
    one stacked ``lincomb`` and one stacked ``membership_margin``. A round
    draws one proposal per missing member, so it finds at most the members
    still missing and never draws past the last one.
    """
    space = dom.space
    members = np.empty((count, *space.shape), dtype=complex)
    got = misses = 0  # misses: proposals since the last member
    while got < count:
        size = min(count - got, DOMAIN_ATTEMPTS - misses)
        draws = rng.uniform(-1.0, 1.0, (size, 2, space.dim))
        zs = space.lincomb(draws[:, 0] + 1j * draws[:, 1])
        verdicts, smin = dom.membership_margin(zs)
        hits = np.flatnonzero((verdicts == Verdict.MEMBER) & (smin > margin))
        members[got : got + hits.size] = zs[hits]
        got += hits.size
        misses = misses + size if hits.size == 0 else size - 1 - hits[-1]
        if misses >= DOMAIN_ATTEMPTS:
            raise InternalCheckError(f"could not sample a member of {dom.label or 'the domain'}")
    return members


def random_domain_member(rng, dom, margin=0.0):
    """Rejection-sample a member whose denominator clears the given margin: ``sample_members`` of one."""
    return sample_members(rng, dom, 1, margin)[0]


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
        w = rng.uniform(-1, 1, nk) + 1j * rng.uniform(-1, 1, nk)
        q = float(np.vdot(w, spec.b @ w).real)
        alpha = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        need = abs(alpha) ** 2 + q
        beta_mod = np.sqrt(max(need, 0.0) + rng.uniform(0.1, 2.0))
        phase = np.exp(2j * np.pi * rng.uniform())
        coords = np.concatenate([[alpha], w, [beta_mod * phase]])
        z = spec.frame @ coords.astype(complex)
        if spec.form(z).real < -spec.tol.eq_tol:
            return z
    raise InternalCheckError("could not sample a hyperbolic member")


def sample_pg_members(rng, e, count, tol=DEFAULT_TOL):
    """``count`` members of Z*JZ < J, J = I - 2E, with EZ + I - E invertible, as a (count, n, n) stack.

    Each proposal is z = U_E(b), the Potapov-Ginzburg map of ``e`` at a b in
    the unit ball whose norm is uniform in PG_BALL_NORMS, and z is accepted by
    tests that do not use U_E: J - z*Jz is positive definite by more than
    PG_MIN_MARGIN, and EZ + I - E is invertible. Each round draws one proposal
    per missing member as one stack; past PG_ATTEMPTS proposals per member
    asked for, InternalCheckError is raised. A non-idempotent ``e`` raises
    ValueError before any draw.
    """
    u = potapov_ginzburg_map(e, tol)
    n = u.dim_k
    e, d_blk = u.c, u.d  # E and I - E, converted once by the map
    j = d_blk - e  # I - 2E
    members = np.empty((count, n, n), dtype=complex)
    budget = count * PG_ATTEMPTS
    got = drawn = 0
    while got < count:
        if drawn >= budget:
            raise InternalCheckError("could not sample the signed-contraction domain")
        size = min(count - got, budget - drawn)
        parts = rng.uniform(-1.0, 1.0, (size, 2, n, n))
        bs = parts[:, 0] + 1j * parts[:, 1]
        scales = rng.uniform(*PG_BALL_NORMS, size) / operator_norm(bs)
        zs, singular = lft_apply(u, scales[:, None, None] * bs)
        zs = zs[~singular]
        accepted = hermitian_margin(j - dagger(zs) @ j @ zs) > PG_MIN_MARGIN
        # only the items inside the form need the denominator's verdict
        accepted[accepted] = ~singular_test(e @ zs[accepted] + d_blk, tol)[1]
        hits = zs[accepted]
        members[got : got + len(hits)] = hits
        got += len(hits)
        drawn += size
    return members
