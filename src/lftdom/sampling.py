"""Random generators for members of the various domains.

Every function takes a numpy Generator so callers control determinism.
Matrix entries draw real and imaginary parts uniformly from [-1, 1]; the
shaped samplers rescale or reject until the target set is hit, with attempt
caps that raise instead of looping forever.
"""

import numpy as np

from .exceptions import InternalCheckError
from .linalg import DEFAULT_TOL, hermitian_margin, operator_norm, principal_sqrt, singular_test, try_invert
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
    if not space.is_square:
        raise ValueError("invertible members need a square space")
    for _ in range(INVERTIBLE_ATTEMPTS):
        z = random_space_member(rng, space)
        inv = try_invert(z, tol)
        if inv is not None and operator_norm(inv) < 1e6:
            return z
    raise InternalCheckError("could not sample an invertible member")


def random_domain_member(rng, dom, scale=1.0, margin=0.0):
    """Rejection-sample a member whose denominator clears the given margin."""
    for _ in range(DOMAIN_ATTEMPTS):
        z = random_space_member(rng, dom.space, scale=scale)
        verdict, smin = dom.membership_margin(z)
        if verdict is not Verdict.MEMBER or smin <= margin:
            continue
        return z
    raise InternalCheckError(f"could not sample a member of {dom.label or 'the domain'}")


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
    the sampler works whatever the signature of J.
    """
    e = np.asarray(e, dtype=complex)
    n = e.shape[0]
    j = signature_from_projection(e)
    d_blk = np.eye(n, dtype=complex) - e
    for attempt in range(PG_ATTEMPTS):
        z = random_matrix(rng, n, n)
        kind = attempt % 3
        if kind == 0:
            top = operator_norm(z)
            if top < 1e-12:
                continue
            z = (rng.uniform(0.05, 0.9) / top) * z
        elif kind == 1:
            smin = float(singular_test(z, tol)[0])
            if smin < 1e-8:
                continue
            z = (rng.uniform(1.05, 1.8) / smin) * z
        else:
            z = z @ np.diag(rng.uniform(0.1, 2.0, n))
        if hermitian_margin(j - z.conj().T @ j @ z) <= PG_MIN_MARGIN:
            continue
        if try_invert(e @ z + d_blk, tol) is None:
            continue
        return z
    raise InternalCheckError("could not sample the signed-contraction domain")
