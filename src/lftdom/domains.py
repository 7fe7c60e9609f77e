"""Linear fractional transformations and their domains in matrix spaces.

A map Z -> (A Z + B)(C Z + D)^-1 acts on dim_k x dim_h matrices Z. Given a
subspace, coefficients (C, D) and a base point Z0 with C Z0 + D invertible,
the associated domain is the set of members Z of the subspace where C Z + D
stays invertible, provided the space absorbs the quadratic products
Z X0 Z with X0 = (C Z0 + D)^-1 C. In finite dimensions that set is connected
(the complement is the zero set of a determinant), so no component tracking
is needed and membership is just the two checks.

A Domain takes its Tolerance once, when it is built, and every operation on
it judges with that one, as does every map built on it (``LFTMap.tol``).
"""

import enum
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ShapeError, SingularMatrixError, SpaceClosureError
from .linalg import (
    DEFAULT_TOL,
    as_cmatrix,
    as_cstack,
    dagger,
    invert,
    operator_norm,
    singular_test,
    try_invert,
)
from .spaces import OperatorSpace, closed_under_quadratic, full_space, is_power_algebra


@dataclass(frozen=True)
class LFTMap:
    """Block coefficients of Z -> (a z + b)(c z + d)^-1 on dim_k x dim_h arguments.

    lft_apply judges it with tol, the Tolerance of its builder: a domain's, the
    one a map constructor was given, or DEFAULT_TOL from bare coefficients.
    The package's builders also make stacks of maps, whose blocks are
    (m, ., .) stacks; lft_apply takes one to an (m, k, h) stack of points.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    tol = DEFAULT_TOL  # not a field: the package's own builders set theirs

    def __post_init__(self):
        a, b, c, d = (as_cmatrix(m) for m in (self.a, self.b, self.c, self.d))
        _check_block_shapes(a, b, c, d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def _of_blocks(cls, a, b, c, d, tol):
        """The map of complex128 blocks the package has just built: only their shapes are checked.

        On (m, ., .) block stacks, the stack of their m maps. Data from outside
        goes through the constructor, which validates it.
        """
        _check_block_shapes(a, b, c, d)
        t = object.__new__(cls)
        vars(t).update(a=a, b=b, c=c, d=d, tol=tol)
        return t

    @property
    def dim_k(self):
        return self.a.shape[-1]

    @property
    def dim_h(self):
        return self.d.shape[-1]

    def coefficient_matrix(self):
        """The assembled (dim_k + dim_h)-square block matrix [[a, b], [c, d]]; on a stack of maps, one per map."""
        k = self.dim_k
        m = np.empty((*self.a.shape[:-2], k + self.dim_h, k + self.dim_h), dtype=complex)
        m[..., :k, :k] = self.a
        m[..., :k, k:] = self.b
        m[..., k:, :k] = self.c
        m[..., k:, k:] = self.d
        return m

    @classmethod
    def from_coefficient_matrix(cls, m, dim_k, dim_h):
        m = as_cmatrix(m, rows=dim_k + dim_h, cols=dim_k + dim_h)
        return cls(m[:dim_k, :dim_k], m[:dim_k, dim_k:], m[dim_k:, :dim_k], m[dim_k:, dim_k:])

    @classmethod
    def identity(cls, dim_k, dim_h):
        return cls(
            np.eye(dim_k, dtype=complex),
            np.zeros((dim_k, dim_h), dtype=complex),
            np.zeros((dim_h, dim_k), dtype=complex),
            np.eye(dim_h, dtype=complex),
        )

    def compose(self, inner):
        """The map self(inner(Z)), with self's tol; coefficient matrices multiply."""
        m = as_cmatrix(self.coefficient_matrix() @ inner.coefficient_matrix())
        k = self.dim_k
        return LFTMap._of_blocks(m[:k, :k], m[:k, k:], m[k:, :k], m[k:, k:], self.tol)

    def __call__(self, z):
        return lft_apply(self, z)


def _check_block_shapes(a, b, c, d):
    """Raise ShapeError unless a, b, c, d are the k x k, k x h, h x k and h x h blocks of one map, or stacks of them."""
    k = a.shape[-1]
    h = d.shape[-1]
    lead = a.shape[:-2]
    if (
        a.shape != (*lead, k, k) or b.shape != (*lead, k, h)
        or c.shape != (*lead, h, k) or d.shape != (*lead, h, h)
    ):
        raise ShapeError(
            f"inconsistent block shapes a={a.shape} b={b.shape} c={c.shape} d={d.shape}"
        )


# lft_apply's error where a denominator is singular
LFT_SINGULAR = "linear fractional map denominator c z + d is singular"


def lft_apply(t, z):
    """Evaluate (a z + b)(c z + d)^-1 at t.tol; the package's one evaluation of an LFT.

    One z raises SingularMatrixError on a singular denominator. On an
    (m, k, h) stack it returns (images, singular), as ``try_invert`` does:
    ``singular`` is the per-item verdict and a singular item's image is NaN.
    A stack of m maps takes an (m, k, h) stack, item i to map i, and returns
    the same pair. Each item gets exactly the image and the verdict of a call
    on it alone.
    """
    z = as_cstack(z, rows=t.dim_k, cols=t.dim_h)
    if z.ndim == 2 == t.a.ndim:
        den_inv = invert(t.c @ z + t.d, t.tol, LFT_SINGULAR)
        return (t.a @ z + t.b) @ den_inv
    if z.ndim != 3 or (t.a.ndim == 3 and len(t.a) != len(z)):
        want = "one matrix or an (m, k, h) stack" if t.a.ndim == 2 else f"a ({len(t.a)}, k, h) stack"
        raise ShapeError(f"expected {want}, got shape {z.shape}")
    den_inv, singular = try_invert(t.c @ z + t.d, t.tol)
    return (t.a @ z + t.b) @ den_inv, singular


def lft_images(t, z):
    """The images of ``lft_apply(t, z)``, or its error where it flags an item.

    One z is lft_apply's call. On a stack the images are lft_apply's; where
    it flags any item, the first one is evaluated alone, so the error is
    the SingularMatrixError that lft_apply raises, through ``invert``, on
    that item.
    """
    images = lft_apply(t, z)
    if isinstance(images, tuple):
        images, singular = images
        if singular.any():
            i = np.flatnonzero(singular)[0]
            if t.a.ndim == 3:
                t = LFTMap._of_blocks(t.a[i], t.b[i], t.c[i], t.d[i], t.tol)
            lft_apply(t, np.asarray(z)[i])
    return images


class Verdict(enum.Enum):
    MEMBER = "member"
    NOT_IN_SPACE = "not-in-space"
    SINGULAR = "singular"


class Domain:
    """Domain of a linear fractional transformation on an operator space.

    Holds the space, the coefficients (c, d), the base point z0, the cached
    inverse den0_inv = (c z0 + d)^-1 (read-only) and kernel x0 = den0_inv c,
    the Tolerance tol that every operation on the domain judges with, and the
    read-only identities eye_k and eye_h (dim_k and dim_h square) that the
    formulas on it take. Construction validates that z0 belongs to the
    space, that c z0 + d is invertible, and that the space is closed under
    the quadratic products Z x0 Z.
    """

    def __init__(self, space, c, d, z0, tol=DEFAULT_TOL, label=""):
        self.space = space
        self.eye_k = np.eye(space.dim_k, dtype=complex)
        self.eye_h = np.eye(space.dim_h, dtype=complex)
        self.eye_k.flags.writeable = self.eye_h.flags.writeable = False
        self.c = as_cmatrix(c, rows=space.dim_h, cols=space.dim_k)
        self.d = as_cmatrix(d, rows=space.dim_h, cols=space.dim_h)
        self.z0 = as_cmatrix(z0, rows=space.dim_k, cols=space.dim_h)
        self.tol = tol
        self.label = label or space.label
        if not space.contains(self.z0, tol):
            raise SpaceClosureError("base point does not belong to the operator space")
        self.den0_inv = invert(self.denominator(self.z0), tol, "c z0 + d is singular at the base point")
        self.den0_inv.flags.writeable = False
        self.x0 = self.den0_inv @ self.c
        if not closed_under_quadratic(space, self.x0, tol):
            raise SpaceClosureError(
                "operator space is not closed under the quadratic products Z x0 Z"
            )

    @property
    def dim_k(self):
        return self.space.dim_k

    @property
    def dim_h(self):
        return self.space.dim_h

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"Domain({self.dim_k}x{self.dim_h}{tag})"

    def membership(self, z):
        """Classify z as MEMBER, NOT_IN_SPACE, or SINGULAR.

        In finite dimensions the invertibility set inside the space is
        connected, so membership needs no component test. On an
        (..., dim_k, dim_h) stack, returns an object array of verdicts, one
        per item.
        """
        return self.membership_margin(z)[0]

    def membership_margin(self, z):
        """(verdict, smin): ``membership(z)`` and the smallest singular value of c z + d.

        Both come from one SVD, without an inverse; smin is None for a single
        z outside the space. On a stack both are arrays, one entry per item.
        """
        z = as_cstack(z, rows=self.dim_k, cols=self.dim_h)
        inside = self.space.contains(z, self.tol)
        if z.ndim == 2 and not inside:
            return Verdict.NOT_IN_SPACE, None
        smin, singular = singular_test(self.c @ z + self.d, self.tol)
        if z.ndim == 2:
            return (Verdict.SINGULAR if singular else Verdict.MEMBER), smin
        verdicts = np.full(z.shape[:-2], Verdict.MEMBER, dtype=object)
        verdicts[singular] = Verdict.SINGULAR
        verdicts[~inside] = Verdict.NOT_IN_SPACE
        return verdicts, smin

    def is_member(self, z):
        return self.membership(z) is Verdict.MEMBER

    def denominator(self, z):
        return self.c @ z + self.d

    def try_denominator_inverse(self, z):
        """(c z + d)^-1, or None where c z + d is singular; on a stack, try_invert's (inverses, singular)."""
        return try_invert(self.c @ z + self.d, self.tol)

    def denominator_inverse(self, z):
        """(c z + d)^-1; raises SingularMatrixError where c z + d is singular."""
        return invert(
            self.denominator(z), self.tol, "c z + d is singular; the point is outside the domain"
        )

    def kernel_at(self, y):
        """X = (c y + d)^-1 c, the local kernel entering every automorphism formula."""
        return self.denominator_inverse(y) @ self.c


@dataclass(frozen=True)
class ConnectivityReport:
    """Which of the four sufficient connectivity conditions hold.

    compact_coefficients   products C Z are compact (always, in finite dimensions)
    polynomial_identity    every X0 Z satisfies a polynomial equation (Cayley-Hamilton)
    full_space_closed_range  space is full and ran C is closed
    range_inclusion        space is full and ran D lies inside ran C
    """

    compact_coefficients: bool
    polynomial_identity: bool
    full_space_closed_range: bool
    range_inclusion: bool

    @property
    def connected(self):
        return (
            self.compact_coefficients
            or self.polynomial_identity
            or self.full_space_closed_range
            or self.range_inclusion
        )


def connectivity_class(dom):
    """Report the connectivity conditions for the domain's ambient set."""
    full = dom.space.is_full
    ran_d_in_ran_c = False
    if full:
        rank_c = np.linalg.matrix_rank(dom.c)
        rank_cd = np.linalg.matrix_rank(np.hstack([dom.c, dom.d]))
        ran_d_in_ran_c = rank_cd == rank_c
    return ConnectivityReport(
        compact_coefficients=True,
        polynomial_identity=True,
        full_space_closed_range=full,
        range_inclusion=full and ran_d_in_ran_c,
    )


def det_membership(dom, z):
    """Determinant witness f(z) = det(I + d^-1 c z); zero exactly on the singular set.

    Requires an invertible d block (the coefficients are normalised by d^-1
    on the left, which preserves the zero set of det(c z + d)). On an
    (..., k, h) stack, an array of the values, with d inverted once.
    """
    d_inv = invert(dom.d, dom.tol, "determinant witness requires an invertible d block")
    z = as_cstack(z, rows=dom.dim_k, cols=dom.dim_h)
    f = np.linalg.det(dom.eye_h + d_inv @ dom.c @ z)
    return complex(f) if z.ndim == 2 else f


# ---------------------------------------------------------------------------
# Stock domain constructors


def whole_space_domain(space, tol=DEFAULT_TOL):
    """The whole space as a domain: c = 0, d = I, so every member qualifies."""
    c = np.zeros((space.dim_h, space.dim_k), dtype=complex)
    d = np.eye(space.dim_h, dtype=complex)
    z0 = np.zeros((space.dim_k, space.dim_h), dtype=complex)
    return Domain(space, c, d, z0, tol, label="whole-space")


def invertibles_domain(space, tol=DEFAULT_TOL):
    """Invertible elements of a power algebra: c = I, d = 0, base point I."""
    if not is_power_algebra(space, tol):
        raise SpaceClosureError("invertibles domain requires a power algebra")
    eye = np.eye(space.dim_h, dtype=complex)
    return Domain(space, eye, np.zeros_like(eye), eye, tol, label="invertibles")


def require_idempotent(e, tol):
    """Raise ValueError unless ||e^2 - e|| is within ``tol.eq_tol`` (1 + ||e||)^2."""
    if operator_norm(e @ e - e) > tol.eq_tol * (1.0 + operator_norm(e)) ** 2:
        raise ValueError("e is not idempotent")


def projection_domain(space, e, tol=DEFAULT_TOL):
    """Domain from a projection e in the space: c = e, d = I - e, base point e.

    Generalises the whole-space (e = 0) and invertibles (e = I) domains.
    """
    e = as_cmatrix(e, rows=space.dim_k, cols=space.dim_h)
    if not space.is_square:
        raise ShapeError("projection domain requires a square space")
    require_idempotent(e, tol)
    if not space.contains(e, tol):
        raise SpaceClosureError("projection e does not belong to the space")
    eye = np.eye(space.dim_h, dtype=complex)
    return Domain(space, e, eye - e, e, tol, label="projection")


def hyperplane_complement_domain(c_vec, d, tol=DEFAULT_TOL):
    """Complement of the hyperplane (z, c) = -d in column-vector space.

    Vectors are embedded as n x 1 matrices; the coefficients are the row c*
    and the scalar d.
    """
    c_vec = as_cmatrix(np.reshape(np.asarray(c_vec, dtype=complex), (-1, 1)))
    n = c_vec.shape[0]
    if operator_norm(c_vec) == 0.0:
        raise ValueError("hyperplane normal must be nonzero")
    space = full_space(n, 1)
    c = dagger(c_vec)
    d_blk = as_cmatrix([[d]])
    for z0 in (np.zeros((n, 1), dtype=complex), c_vec, -c_vec, 2 * c_vec):
        if not singular_test(c @ z0 + d_blk, tol)[1]:
            return Domain(space, c, d_blk, z0, tol, label="hyperplane-complement")
    raise SingularMatrixError("could not find a base point off the hyperplane")


def rank_one_pairing_domain(space, x, y, d, tol=DEFAULT_TOL):
    """Domain where the pairing (Z x, y) avoids -d; coefficients c = x y*, d = d I.

    x (length dim_h) and y (length dim_k) must be unit vectors and d nonzero.
    The base point (1 - d) y x* must itself belong to the space.
    """
    x = as_cmatrix(np.reshape(np.asarray(x, dtype=complex), (-1, 1)), rows=space.dim_h)
    y = as_cmatrix(np.reshape(np.asarray(y, dtype=complex), (-1, 1)), rows=space.dim_k)
    if abs(np.linalg.norm(x) - 1.0) > 1e-8 or abs(np.linalg.norm(y) - 1.0) > 1e-8:
        raise ValueError("x and y must be unit vectors")
    if singular_test(as_cmatrix([[d]]), tol)[1]:
        raise ValueError("d must be nonzero")
    c = x @ dagger(y)
    d_blk = d * np.eye(space.dim_h, dtype=complex)
    z0 = (1.0 - d) * (y @ dagger(x))
    if not space.contains(z0, tol):
        raise SpaceClosureError("base point (1 - d) y x* does not belong to the space")
    return Domain(space, c, d_blk, z0, tol, label="rank-one-pairing")


# ---------------------------------------------------------------------------
# Quadric model: vectors z with sum(z_i^2) != 0, realised in a spin algebra


_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _clifford_generators(n):
    """n pairwise anticommuting Hermitian matrices with square I, size 2^ceil(n/2)."""
    m = (n + 1) // 2
    gens = []
    for i in range(1, n + 1):
        k = (i + 1) // 2
        head = _SIGMA_X if i % 2 == 1 else _SIGMA_Y
        factors = [_SIGMA_Z] * (k - 1) + [head] + [np.eye(2, dtype=complex)] * (m - k)
        g = factors[0]
        for f in factors[1:]:
            g = np.kron(g, f)
        gens.append(g)
    return gens


@dataclass(frozen=True)
class QuadricModel:
    """The vectors z in C^n with (z, conj(z)) = sum z_i^2 nonzero, as an LFT domain.

    The linear embedding z -> sum z_i G_i into anticommuting generators G_i
    turns the quadric form into a determinant condition: the image matrix is
    invertible exactly when sum z_i^2 != 0. The resulting span is closed under
    the required quadratic products, so the generic domain machinery applies.
    """

    n: int
    generators: tuple
    domain: Domain = field(compare=False)

    @property
    def matrix_dim(self):
        return self.generators[0].shape[0]

    def embed(self, zvec):
        zvec = np.reshape(np.asarray(zvec, dtype=complex), (-1,))
        if zvec.shape != (self.n,):
            raise ShapeError(f"expected a vector of length {self.n}")
        return np.tensordot(zvec, np.stack(self.generators), axes=1)

    def unembed(self, z):
        z = as_cmatrix(z, rows=self.matrix_dim, cols=self.matrix_dim)
        return np.array([np.trace(g @ z) / self.matrix_dim for g in self.generators])

    def quadric_form(self, zvec):
        """(z, conj(z)) = sum z_i^2."""
        zvec = np.asarray(zvec, dtype=complex).reshape(-1)
        return complex(np.sum(zvec * zvec))

    def closed_form_symmetry(self, yvec, zvec):
        """The vector-level symmetry (2 (z.y) y - (y.y) z) / (z.z) for cross-checks."""
        yvec = np.asarray(yvec, dtype=complex).reshape(-1)
        zvec = np.asarray(zvec, dtype=complex).reshape(-1)
        zz = np.sum(zvec * zvec)
        if zz == 0:
            raise SingularMatrixError("z lies on the quadric; symmetry undefined")
        return (2.0 * np.sum(zvec * yvec) * yvec - np.sum(yvec * yvec) * zvec) / zz


def quadric_domain(n, tol=DEFAULT_TOL):
    """Build the QuadricModel for vectors of length n >= 2."""
    if n < 2:
        raise ValueError("quadric model needs n >= 2")
    gens = _clifford_generators(n)
    size = gens[0].shape[0]
    space = OperatorSpace(size, size, gens, label="quadric-span")
    eye = np.eye(size, dtype=complex)
    dom = Domain(space, eye, np.zeros_like(eye), gens[0], tol, label="quadric")
    return QuadricModel(n=n, generators=tuple(gens), domain=dom)
