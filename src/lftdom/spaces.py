"""Complex subspaces of the m x n matrices, given by a basis.

An OperatorSpace holds matrices of shape (dim_k, dim_h): linear maps from an
H of dimension dim_h into a K of dimension dim_k. Closedness is automatic in
finite dimensions, so the class only tracks the span and offers the closure
predicates the domain construction needs.
"""

import functools

import numpy as np

from .exceptions import ShapeError, SpaceClosureError
from .linalg import DEFAULT_TOL, as_cmatrix


class OperatorSpace:
    """Span of a linearly independent list of dim_k x dim_h matrices."""

    def __init__(self, dim_k, dim_h, basis, label=""):
        if dim_k < 1 or dim_h < 1:
            raise ValueError("dimensions must be positive")
        if not basis:
            raise ValueError("basis must be non-empty")
        self.dim_k = int(dim_k)
        self.dim_h = int(dim_h)
        self.basis = [as_cmatrix(b, rows=dim_k, cols=dim_h) for b in basis]
        self.label = label
        # columns of the coordinate matrix are the vectorised basis elements
        coord = np.column_stack([b.ravel() for b in self.basis])
        if np.linalg.matrix_rank(coord) != len(self.basis):
            raise ValueError("basis elements are linearly dependent")
        self._coord = coord
        self._onb, _ = np.linalg.qr(coord)
        self._onb_h = self._onb.conj().T
        # a full space in the standard basis (every full_space) gets exactly
        # the identity here: its projection returns a finite z unchanged
        self._onb_is_identity = np.array_equal(self._onb, np.eye(self.dim))
        # the basis as one (dim, dim_k, dim_h) array, for lincomb and the closure checks
        self._stacked = np.stack(self.basis)

    @functools.cached_property
    def _exact_rows(self):
        """Whether a stack of coefficient rows may be combined in one product.

        With every basis entry 0, +-1 or +-i and at most two basis elements at
        each entry, each entry of a lincomb is a sum of at most two exact
        products, rounded once whatever kernel forms it, so one product for
        all rows matches the row-by-row calls bit for bit.
        """
        size = np.abs(self._stacked)
        unit = ((self._stacked.real == 0) | (self._stacked.imag == 0)) & ((size == 0) | (size == 1))
        return bool(unit.all() and ((size != 0).sum(axis=0) <= 2).all())

    @property
    def shape(self):
        return (self.dim_k, self.dim_h)

    @property
    def dim(self):
        return len(self.basis)

    @property
    def is_full(self):
        return self.dim == self.dim_k * self.dim_h

    @property
    def is_square(self):
        return self.dim_k == self.dim_h

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"OperatorSpace({self.dim_k}x{self.dim_h}, dim={self.dim}{tag})"

    def _check_shape(self, z, stack=False):
        z = np.asarray(z, dtype=complex)
        if z.shape[-2:] != self.shape or (z.ndim > 2 and not stack):
            raise ShapeError(f"expected shape {self.shape}, got {z.shape}")
        return z

    def residual(self, z):
        """Frobenius norm of z minus its orthogonal projection onto the span.

        On an (..., dim_k, dim_h) stack, one residual per item.
        """
        return self._residual(self._check_shape(z, stack=True))

    def _residual(self, z):
        v = z.reshape(z.shape[:-2] + (-1, 1))
        r = v - self._onb @ (self._onb_h @ v)
        return float(np.linalg.norm(r)) if z.ndim == 2 else np.linalg.norm(r[..., 0], axis=-1)

    def contains(self, z, tol=DEFAULT_TOL):
        """True iff the projection residual is at most eq_tol * (1 + ||z||_F); per item on a stack.

        Where the orthonormal basis is the identity, the residual of a finite
        z is exactly 0, within any positive eq_tol, so only finiteness is
        judged there.
        """
        z = self._check_shape(z, stack=True)
        if self._onb_is_identity and tol.eq_tol > 0.0:
            return np.isfinite(z).all(axis=(-2, -1))
        size = np.linalg.norm(z) if z.ndim == 2 else np.linalg.norm(z, axis=(-2, -1))
        return self._residual(z) <= tol.eq_tol * (1.0 + size)

    def project(self, z):
        """Orthogonal projection of z onto the span."""
        z = self._check_shape(z)
        v = self._onb @ (self._onb_h @ z.ravel())
        return v.reshape(self.shape)

    def coordinates(self, z):
        """Coefficients of z in the stored basis (least squares; exact on members)."""
        z = self._check_shape(z)
        coeffs, *_ = np.linalg.lstsq(self._coord, z.ravel(), rcond=None)
        return coeffs

    def lincomb(self, coeffs):
        """Member built from basis coefficients; from an (m, dim) stack of rows, an (m, k, h) stack.

        Each member of a stack is bit for bit the member built from its row alone.
        """
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape[-1:] != (self.dim,) or coeffs.ndim > 2:
            raise ShapeError(f"expected {self.dim} coefficients, got {coeffs.shape}")
        if coeffs.ndim == 1 or self._exact_rows:
            return np.tensordot(coeffs, self._stacked, axes=1)
        members = np.empty((len(coeffs), *self.shape), dtype=complex)
        for i, row in enumerate(coeffs):
            members[i] = np.tensordot(row, self._stacked, axes=1)
        return members


def closed_under_quadratic(space, x0, tol=DEFAULT_TOL):
    """Whether Z @ x0 @ Z stays in the space for every member Z.

    By polarisation the quadratic condition is equivalent to membership of
    Bi @ x0 @ Bj + Bj @ x0 @ Bi for every basis pair, which is what is checked.
    A full space holds every dim_k x dim_h product, so it passes at once.
    """
    x0 = as_cmatrix(x0, rows=space.dim_h, cols=space.dim_k)
    if space.is_full:
        return True
    return _holds_symmetrised_products(space, x0, tol)


def is_power_algebra(space, tol=DEFAULT_TOL):
    """True iff the space is square, contains I, and contains all member squares.

    Squares reduce to the symmetrised basis products Bi Bj + Bj Bi.
    """
    if not space.is_square:
        raise SpaceClosureError("power-algebra check requires a square space")
    eye = np.eye(space.dim_h, dtype=complex)
    if not space.contains(eye, tol):
        return False
    return _holds_symmetrised_products(space, eye, tol)


def _holds_symmetrised_products(space, x, tol):
    """Whether Bi x Bj + Bj x Bi passes space.contains for every basis pair.

    Each basis element Bi is tested against all Bj with j >= i in one stacked
    projection; stacking every pair at once would hold dim^2 / 2 products.
    """
    bs = space._stacked
    onb = space._onb
    for i, bi in enumerate(bs):
        p = (bi @ x @ bs[i:] + bs[i:] @ x @ bi).reshape(len(bs) - i, -1).T
        resid = np.linalg.norm(p - onb @ (space._onb_h @ p), axis=0)
        if (resid > tol.eq_tol * (1.0 + np.linalg.norm(p, axis=0))).any():
            return False
    return True


def full_space(dim_k, dim_h):
    """All dim_k x dim_h complex matrices (standard basis)."""
    basis = []
    for r in range(dim_k):
        for c in range(dim_h):
            e = np.zeros((dim_k, dim_h), dtype=complex)
            e[r, c] = 1.0
            basis.append(e)
    return OperatorSpace(dim_k, dim_h, basis, label="full")


def diagonal_space(n):
    """Diagonal n x n matrices."""
    basis = []
    for r in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[r, r] = 1.0
        basis.append(e)
    return OperatorSpace(n, n, basis, label="diagonal")


def symmetric_space(n):
    """Complex symmetric n x n matrices (Z equal to its transpose)."""
    basis = []
    for r in range(n):
        for c in range(r, n):
            e = np.zeros((n, n), dtype=complex)
            e[r, c] = 1.0
            e[c, r] = 1.0
            basis.append(e)
    return OperatorSpace(n, n, basis, label="symmetric")


def upper_triangular_space(n):
    """Upper triangular n x n matrices."""
    basis = []
    for r in range(n):
        for c in range(r, n):
            e = np.zeros((n, n), dtype=complex)
            e[r, c] = 1.0
            basis.append(e)
    return OperatorSpace(n, n, basis, label="upper-triangular")
