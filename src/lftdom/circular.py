"""Circular matrix domains and their linear automorphisms.

Four families live here: the Siegel-type domain I + Z1*Z1 < Z2*Z2 of stacked
matrices with its validated maps Z -> L Z U and the Cayley-type involution;
the exterior domain I < Z*Z inside a power algebra, with the linear maps of
an operator space into itself; the Mobius automorphisms of the unit operator
ball; and the two transitive linear groups, one for the product-type stacked
domain Z1*Z1 < Z2*Z2 and one for the hyperbolic vector domain (Jz, z) < 0.

Nothing here draws: the sampled checks of the inverse identity of linear
isometries and of exterior preservation live in verify. A SiegelSpec or
HyperbolicSpec takes its Tolerance once, when it is built, and every function
on a spec judges with spec.tol.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    HypothesisError,
    InternalCheckError,
    ShapeError,
    SingularMatrixError,
    SpaceClosureError,
    SpectrumError,
)
from .domains import LFTMap
from .linalg import (
    DEFAULT_TOL, Tolerance, as_cmatrix, as_cstack, ball_roots, dagger, first_at_least,
    hermitian_margin, invert, operator_norm, principal_sqrt, singular_test, try_invert,
)


# ---------------------------------------------------------------------------
# Siegel-type stacked domain


@dataclass(frozen=True)
class SiegelSpec:
    """Shape data for domains of stacked matrices [Z1; Z2], and their Tolerance.

    Members are (dim_k + dim_h) x dim_h with Z1 the top dim_k rows and Z2 the
    square bottom block; the signature matrix is J = diag(I_k, -I_h). The
    Siegel-type and product-type functions and samplers judge with tol.
    """

    dim_k: int
    dim_h: int
    tol: Tolerance = DEFAULT_TOL

    def __post_init__(self):
        if self.dim_k < 1 or self.dim_h < 1:
            raise ValueError("both block dimensions must be at least 1")

    @property
    def shape(self):
        return (self.dim_k + self.dim_h, self.dim_h)

    @property
    def j(self):
        return np.diag(
            np.concatenate([np.ones(self.dim_k), -np.ones(self.dim_h)])
        ).astype(complex)

    def split(self, z):
        """(Z1, Z2) of one member or of each item of a stack."""
        z = as_cstack(z, rows=self.dim_k + self.dim_h, cols=self.dim_h)
        return z[..., : self.dim_k, :], z[..., self.dim_k :, :]

    def stack(self, z1, z2):
        z1 = as_cmatrix(z1, rows=self.dim_k, cols=self.dim_h)
        z2 = as_cmatrix(z2, rows=self.dim_h, cols=self.dim_h)
        return np.vstack([z1, z2])


def siegel_member(spec, z):
    """True iff Z2*Z2 - Z1*Z1 - I is positive definite (strict interior); per item of a stack."""
    z1, z2 = spec.split(z)
    gram = dagger(z2) @ z2 - dagger(z1) @ z1 - np.eye(spec.dim_h, dtype=complex)
    return hermitian_margin(gram) > spec.tol.eq_tol


def siegel_gram(spec, z):
    """I + Z*JZ; negative definite exactly on the Siegel domain. One per item of a stack."""
    z = as_cstack(z, rows=spec.dim_k + spec.dim_h, cols=spec.dim_h)
    return np.eye(spec.dim_h, dtype=complex) + dagger(z) @ spec.j @ z


@dataclass(frozen=True)
class SiegelLinearAuto:
    """A validated automorphism h(Z) = L Z U of the Siegel-type domain.

    L is J-unitary on the stacked space and U is unitary; the inverse is
    h^-1(Z) = L^-1 Z U*. A stack of m maps holds (m, ., .) stacks of L and
    U, and takes one point or an (m, ., .) stack, item i to map i.
    """

    spec: SiegelSpec
    l: np.ndarray
    u: np.ndarray
    l_inv: np.ndarray = field(repr=False)

    def __call__(self, z):
        z = as_cstack(z, rows=self.spec.dim_k + self.spec.dim_h, cols=self.spec.dim_h)
        return self.l @ z @ self.u

    def inverse(self, z):
        z = as_cstack(z, rows=self.spec.dim_k + self.spec.dim_h, cols=self.spec.dim_h)
        return self.l_inv @ z @ dagger(self.u)


def siegel_linear_auto(spec, l, u):
    """Validate (L, U) and wrap them as a domain automorphism.

    Requires L*JL = J, U unitary, and L invertible. On (m, ., .) stacks of L
    and U, the stack of their m maps, each with the bits of its call alone;
    each check runs once on the stack and raises if it flags any item.
    """
    n = spec.dim_k + spec.dim_h
    l = as_cstack(l, rows=n, cols=n)
    u = as_cstack(u, rows=spec.dim_h, cols=spec.dim_h)
    j = spec.j
    defect = operator_norm(dagger(l) @ j @ l - j)
    if np.any(defect > spec.tol.eq_tol * (1.0 + operator_norm(l)) ** 2):
        raise HypothesisError("L is not J-unitary: L*JL differs from J")
    if np.any(operator_norm(dagger(u) @ u - np.eye(spec.dim_h)) > spec.tol.eq_tol):
        raise HypothesisError("U is not unitary")
    l_inv = invert(l, spec.tol, "L must be invertible")
    return SiegelLinearAuto(spec=spec, l=l, u=u, l_inv=l_inv)


def siegel_invariant_residual(spec, auto, r):
    """Defect of the conserved quantity at the axis point [0; rI].

    For any validated map h, I + h(Z)*J h(Z) is unitarily equivalent to
    I + Z*JZ, which equals (1 - r^2) I at [0; rI]. The returned residual
    measures ||(I + h(Z_r)* J h(Z_r)) - (1 - r^2) I||; its smallness pins
    the radius r, which is why no automorphism moves one axis point to
    another with a different radius. For a stack of maps, one residual per
    map.
    """
    z_r = spec.stack(
        np.zeros((spec.dim_k, spec.dim_h), dtype=complex),
        r * np.eye(spec.dim_h, dtype=complex),
    )
    value = siegel_gram(spec, auto(z_r))
    expected = (1.0 - r * r) * np.eye(spec.dim_h, dtype=complex)
    return operator_norm(value - expected)


def cayley_map(spec, z):
    """The involution [Z1; Z2] -> [Z1 Z2^-1; Z2^-1] (its own inverse); of each item of a stack."""
    return np.concatenate(product_split(spec, z), axis=-2)


# ---------------------------------------------------------------------------
# Exterior domain I < Z*Z in a power algebra


def exterior_member(space, z, tol=DEFAULT_TOL):
    """True iff z lies in the space and its smallest singular value exceeds 1.

    Equivalent formulations: I < Z*Z, or Z invertible with ||Z^-1|| < 1.
    """
    if not space.is_square:
        raise ShapeError("exterior domain needs a square space")
    z = as_cmatrix(z, rows=space.dim_k, cols=space.dim_h)
    if not space.contains(z, tol):
        raise SpaceClosureError("z does not belong to the operator space")
    return float(singular_test(z, tol)[0]) > 1.0 + tol.eq_tol


class SpaceLinearMap:
    """A linear map of an operator space into itself, given on the basis."""

    def __init__(self, space, images, tol=DEFAULT_TOL):
        if len(images) != space.dim:
            raise ShapeError("need exactly one image per basis element")
        self.space = space
        self.images = [as_cmatrix(m, rows=space.dim_k, cols=space.dim_h) for m in images]
        for i, m in enumerate(self.images):
            if not space.contains(m, tol):
                raise SpaceClosureError(f"image of basis element {i} leaves the space")
        cols = [space.coordinates(m) for m in self.images]
        self.matrix = np.stack(cols, axis=1)
        if singular_test(self.matrix, tol)[1]:
            raise SingularMatrixError("the linear map is not invertible on the space")

    def __call__(self, z):
        coords = self.space.coordinates(z)
        return self.space.lincomb(self.matrix @ coords)


# ---------------------------------------------------------------------------
# Mobius automorphisms of the unit ball


def mobius_map(b, tol=DEFAULT_TOL):
    """The ball automorphism taking 0 to b, as an LFT.

    Blocks: a = (I - b b*)^(-1/2), upper right b (I - b* b)^(-1/2),
    lower left (I - b* b)^(-1/2) b*, lower right (I - b* b)^(-1/2); the
    coefficient matrix is J-unitary for J = diag(I, -I). Requires ||b|| < 1.
    On an (m, k, h) stack of b, the stack of their m maps, each with the bits
    of its call alone; each check runs once on the stack and raises the
    error of the first item it flags.
    """
    b = as_cstack(b)
    norm = first_at_least(operator_norm(b), 1.0)
    if norm is not None:
        raise HypothesisError(f"mobius parameter needs ||b|| < 1; got {norm:.6g}")
    k, h = b.shape[-2:]
    b_adj = dagger(b)
    left = principal_sqrt(np.eye(k, dtype=complex) - b @ b_adj, tol)
    left = invert(left, tol, "(I - b b*)^(1/2) is singular")
    right = principal_sqrt(np.eye(h, dtype=complex) - b_adj @ b, tol)
    right = invert(right, tol, "(I - b* b)^(1/2) is singular")
    return LFTMap._of_blocks(left, b @ right, right @ b_adj, right, tol)


def mobius_direct(b, z, tol=DEFAULT_TOL):
    """Evaluate (I - b b*)^(-1/2) (z + b)(I + b* z)^-1 (I - b* b)^(1/2).

    The spectral route: both roots come from one SVD of b (``ball_roots``),
    independent of the principal square roots behind the coefficient blocks.
    Requires ||b|| < 1.
    """
    b = as_cmatrix(b)
    z = as_cmatrix(z, rows=b.shape[0], cols=b.shape[1])
    norm, left, right = ball_roots(b, tol)
    if left is None:
        raise HypothesisError(f"mobius parameter needs ||b|| < 1; got {norm:.6g}")
    h = b.shape[1]
    den_inv = invert(np.eye(h, dtype=complex) + b.conj().T @ z, tol, "I + b* z is singular")
    return left @ (z + b) @ den_inv @ right


# ---------------------------------------------------------------------------
# Product-type stacked domain and its transitive linear maps


def product_member(spec, z):
    """True iff Z2 is invertible and Z2*Z2 - Z1*Z1 is positive definite; per item of a stack."""
    return _member_split(spec, z)[0]


def _member_split(spec, z):
    """(member, Z1 Z2^-1, Z2^-1): product_member's verdict and product_split's pair; inverts Z2 once.

    One z whose Z2 is singular gives (False, None, None). On a stack, one
    verdict per item, and the pair is NaN at an item whose Z2 is singular.
    """
    z1, z2 = spec.split(z)
    z2_inv = try_invert(z2, spec.tol)
    if z2.ndim == 2:
        if z2_inv is None:
            return False, None, None
        regular = True
    else:
        z2_inv, singular = z2_inv
        regular = ~singular
    gram = dagger(z2) @ z2 - dagger(z1) @ z1
    return regular & (hermitian_margin(gram) > spec.tol.eq_tol), z1 @ z2_inv, z2_inv


def product_split(spec, z):
    """The pair (Z1 Z2^-1, Z2^-1): ball point and invertible operator; of each item of a stack."""
    z1, z2 = spec.split(z)
    z2_inv = invert(z2, spec.tol, "the bottom block Z2 must be invertible")
    return z1 @ z2_inv, z2_inv


@dataclass(frozen=True)
class ProductTransport:
    """The linear automorphism L(Z) = M Z R with L([0; I]) = W.

    M is the coefficient matrix of the ball automorphism at b = W1 W2^-1 and
    R = (I - b* b)^(1/2) W2; M is J-unitary, so L preserves the domain, and
    the inverse transport uses -b with R inverted. A stack of m transports
    holds (m, ., .) stacks, and takes one point or an (m, ., .) stack, item
    i to transport i.
    """

    spec: SiegelSpec
    w: np.ndarray
    b: np.ndarray
    m: np.ndarray
    r: np.ndarray
    m_inv: np.ndarray = field(repr=False)
    r_inv: np.ndarray = field(repr=False)

    def __call__(self, z):
        z = as_cstack(z, rows=self.spec.dim_k + self.spec.dim_h, cols=self.spec.dim_h)
        return self.m @ z @ self.r

    def inverse(self, z):
        z = as_cstack(z, rows=self.spec.dim_k + self.spec.dim_h, cols=self.spec.dim_h)
        return self.m_inv @ z @ self.r_inv


def product_transitive(spec, w):
    """Build the linear map carrying the axis point [0; I] to the member w.

    On an (m, ., .) stack of members, the stack of their m transports, each
    with the bits of its call alone; each check runs once on the stack and
    raises the error of the first item it flags.
    """
    member, b, _ = _member_split(spec, w)
    if not (member.all() if isinstance(member, np.ndarray) else member):
        raise HypothesisError("w is not a member of the product-type domain")
    _, w2 = spec.split(w)
    m = mobius_map(b, spec.tol).coefficient_matrix()
    # M(-b) = J M(b) J for J = diag(I, -I): M(b) with its off-diagonal blocks negated
    k = spec.dim_k
    m_inv = m.copy()
    m_inv[..., :k, k:], m_inv[..., k:, :k] = -m[..., :k, k:], -m[..., k:, :k]
    r = principal_sqrt(np.eye(spec.dim_h, dtype=complex) - dagger(b) @ b, spec.tol) @ w2
    r_inv = invert(r, spec.tol, "the transport factor R is singular")
    return ProductTransport(spec=spec, w=w, b=b, m=m, r=r, m_inv=m_inv, r_inv=r_inv)


# ---------------------------------------------------------------------------
# Hyperbolic vector domain (Jz, z) < 0


class HyperbolicSpec:
    """A Hermitian form J with +1 and -1 in its spectrum, plus frame data.

    The frame consists of unit eigenvectors e (eigenvalue +1) and
    f (eigenvalue -1), the first of each in the eigendecomposition of J,
    and an orthonormal basis of their orthocomplement K; the compression of
    J to K is the Hermitian block b. Membership and transport judge with
    tol, kept as spec.tol.
    """

    def __init__(self, j, tol=DEFAULT_TOL):
        j = as_cmatrix(j)
        n = j.shape[0]
        if j.shape != (n, n) or n < 2:
            raise ShapeError("J must be square of size at least 2")
        if operator_norm(j - j.conj().T) > tol.eq_tol * (1.0 + operator_norm(j)):
            raise SpectrumError("J must be Hermitian")
        self.j = 0.5 * (j + j.conj().T)
        self.dim = n
        self.tol = tol

        eigvals, eigvecs = np.linalg.eigh(self.j)
        self.e = self._first_eigvec(eigvals, eigvecs, 1.0)
        self.f = self._first_eigvec(eigvals, eigvecs, -1.0)

        # the trailing right singular vectors of [e*; f*] span the orthocomplement;
        # the copy to C order keeps the rounding of K* J K below for n >= 4
        pair = np.stack([self.e.conj(), self.f.conj()])
        self.k_basis = np.ascontiguousarray(np.linalg.svd(pair)[2][2:].T.conj())
        if self.k_basis.shape[1] != n - 2:
            raise InternalCheckError("orthocomplement basis has the wrong dimension")
        self.b = self.k_basis.conj().T @ self.j @ self.k_basis
        self.frame = np.column_stack([self.e, self.k_basis, self.f])
        coords_j = self.frame.conj().T @ self.j @ self.frame
        model = np.zeros((n, n), dtype=complex)
        model[0, 0] = 1.0
        model[1 : n - 1, 1 : n - 1] = self.b
        model[n - 1, n - 1] = -1.0
        if operator_norm(coords_j - model) > 1e-8 * (1.0 + operator_norm(self.j)):
            raise InternalCheckError("J does not block-diagonalize in the chosen frame")

    @staticmethod
    def _first_eigvec(eigvals, eigvecs, target):
        hits = np.nonzero(np.abs(eigvals - target) <= 1e-8)[0]
        if hits.size == 0:
            raise SpectrumError(f"J has no eigenvalue {target:+.0f} within 1e-8")
        return eigvecs[:, hits[0]]

    def form(self, z):
        """(Jz, z); real for Hermitian J, negative inside the domain."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        return complex(np.vdot(z, self.j @ z))

    def coordinates(self, z):
        """(alpha, w, beta) coordinates of z in the (e, K, f) frame."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        coords = self.frame.conj().T @ z
        return coords[0], coords[1 : self.dim - 1], coords[self.dim - 1]


def hyperbolic_member(spec, z):
    return spec.form(z).real < -spec.tol.eq_tol


def _l_w_matrix(spec, w):
    """The J-unitary shear fixing the form, parameterized by w in K coords."""
    n = spec.dim
    w = np.asarray(w, dtype=complex).reshape(n - 2)
    bw = spec.b @ w
    q = complex(np.vdot(w, bw))
    l = np.zeros((n, n), dtype=complex)
    l[0, 0] = 1.0 - q / 2.0
    l[n - 1, n - 1] = 1.0 + q / 2.0
    l[0, n - 1] = -q / 2.0
    l[n - 1, 0] = q / 2.0
    l[0, 1 : n - 1] = -(bw.conj())
    l[n - 1, 1 : n - 1] = bw.conj()
    l[1 : n - 1, 0] = w
    l[1 : n - 1, n - 1] = w
    l[1 : n - 1, 1 : n - 1] = np.eye(n - 2, dtype=complex)
    return l


@dataclass(frozen=True)
class HyperbolicTransport:
    """A linear map with L f = z1 and certificate L*JL = c J, c > 0.

    `degenerate` marks inputs with no e or f component, which are reached by
    shearing into the generic branch first and undoing the shear afterwards.
    """

    spec: object
    z1: np.ndarray
    matrix: np.ndarray
    c: float
    degenerate: bool

    def __call__(self, z):
        z = np.asarray(z, dtype=complex).reshape(-1)
        return self.matrix @ z

    def endpoint_residual(self):
        return float(np.linalg.norm(self.matrix @ self.spec.f - self.z1))

    def certificate_residual(self):
        lhs = self.matrix.conj().T @ self.spec.j @ self.matrix
        return float(operator_norm(lhs - self.c * self.spec.j))


def _hyperbolic_branch_a(spec, coords):
    alpha, w1, beta = coords
    n = spec.dim
    big_a = abs(alpha) + abs(beta)
    q1 = complex(np.vdot(w1, spec.b @ w1)).real
    a = abs(alpha) + q1 / (2.0 * big_a)
    b = abs(beta) - q1 / (2.0 * big_a)
    if not b * b - a * a > 0:
        raise InternalCheckError("conformal factor b^2 - a^2 must be positive inside the domain")
    l_w = _l_w_matrix(spec, w1 / big_a)
    l_1 = np.zeros((n, n), dtype=complex)
    l_1[0, 0] = b
    l_1[0, n - 1] = a
    l_1[n - 1, 0] = a
    l_1[n - 1, n - 1] = b
    l_1[1 : n - 1, 1 : n - 1] = np.sqrt(b * b - a * a) * np.eye(n - 2, dtype=complex)
    phases = np.ones(n, dtype=complex)
    phases[0] = alpha / abs(alpha) if abs(alpha) > 0 else 1.0
    phases[n - 1] = beta / abs(beta) if abs(beta) > 0 else 1.0
    l_2 = np.diag(phases)
    return l_2 @ l_w @ l_1, b * b - a * a


def hyperbolic_transitive(spec, z1):
    """Build a linear automorphism of {(Jz, z) < 0} taking f to z1.

    The generic branch composes a diagonal phase map, a shear, and a
    conformal stretch; when z1 has no component along e or f, a preliminary
    shear moves it into the generic branch (one recursion, then undone).
    """
    z1 = np.asarray(z1, dtype=complex).reshape(-1)
    if z1.shape != (spec.dim,):
        raise ShapeError(f"expected a vector of length {spec.dim}")
    if not hyperbolic_member(spec, z1):
        raise HypothesisError("z1 is not inside the domain: (J z1, z1) must be negative")
    alpha, w1, beta = spec.coordinates(z1)
    degenerate = abs(alpha) + abs(beta) <= 1e-8 * (1.0 + np.linalg.norm(z1))
    if degenerate:
        shear = _l_w_matrix(spec, w1)
        shear_inv = _l_w_matrix(spec, -w1)
        pushed = shear @ (spec.frame.conj().T @ z1)
        inner, c = _hyperbolic_branch_a(spec, (pushed[0], pushed[1 : spec.dim - 1], pushed[-1]))
        coords_matrix = shear_inv @ inner
    else:
        coords_matrix, c = _hyperbolic_branch_a(spec, (alpha, w1, beta))
    matrix = spec.frame @ coords_matrix @ spec.frame.conj().T
    transport = HyperbolicTransport(
        spec=spec, z1=z1, matrix=matrix, c=float(c), degenerate=bool(degenerate)
    )
    if transport.endpoint_residual() > 1e-6 * (1.0 + np.linalg.norm(z1)):
        raise InternalCheckError("transport failed to reach z1")
    return transport
