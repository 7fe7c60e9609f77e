"""Dense complex matrix kernels used by every other module.

Matrices are plain ``numpy.ndarray`` values with dtype ``complex128``;
``as_cmatrix`` is the validating entry point for data coming from outside
(finite entries, 2-D shape). Everything here is a pure function.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import ConvergenceError, ShapeError, SpectrumError

SERIES_TERM_CAP = 10_000


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared across the library.

    eq_tol     entrywise/operator-norm comparison bound
    inv_tol    smallest-singular-value threshold for invertibility
    series_tol truncation bound for power series tails
    """

    eq_tol: float = 1e-9
    inv_tol: float = 1e-10
    series_tol: float = 1e-12

    def __post_init__(self):
        if self.eq_tol < 0 or self.inv_tol < 0 or self.series_tol < 0:
            raise ValueError("tolerances must be nonnegative")


DEFAULT_TOL = Tolerance()


def as_cmatrix(data, rows=None, cols=None):
    """Validate and convert array-like data to a 2-D complex128 matrix.

    Rejects non-finite entries and, when ``rows``/``cols`` are given,
    enforces the expected shape.
    """
    a = np.asarray(data, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    if not (np.isfinite(a.real).all() and np.isfinite(a.imag).all()):
        raise ValueError("matrix entries must be finite (no NaN/inf)")
    if rows is not None and a.shape[0] != rows:
        raise ShapeError(f"expected {rows} rows, got {a.shape[0]}")
    if cols is not None and a.shape[1] != cols:
        raise ShapeError(f"expected {cols} cols, got {a.shape[1]}")
    return a


def dagger(z):
    """Conjugate transpose."""
    return z.conj().T


def operator_norm(z):
    """Largest singular value of ``z``."""
    z = np.asarray(z, dtype=complex)
    return float(np.linalg.svd(z, compute_uv=False)[0])


def _require_square(z, who):
    z = np.asarray(z, dtype=complex)
    if z.ndim != 2 or z.shape[0] != z.shape[1]:
        raise ShapeError(f"{who} requires a square matrix, got shape {z.shape}")
    return z


def try_invert(z, tol=DEFAULT_TOL):
    """Invert ``z`` if its smallest singular value exceeds ``tol.inv_tol``.

    Returns the inverse, or None when ``z`` is numerically singular.
    Non-square input is a contract violation and raises ShapeError.
    """
    z = _require_square(z, "try_invert")
    smin = np.linalg.svd(z, compute_uv=False)[-1]
    if smin <= tol.inv_tol:
        return None
    return np.linalg.inv(z)


def principal_sqrt(m, tol=DEFAULT_TOL):
    """Principal square root: Q with Q @ Q = m and spectrum in the right half-plane.

    The spectrum of ``m`` must stay off the closed negative real axis; an
    eigenvalue on the cut (within ``tol.eq_tol`` relative to ||m||) raises
    SpectrumError. Computed by the Schur-based principal branch, which also
    handles defective inputs such as I plus a nilpotent.
    """
    m = _require_square(m, "principal_sqrt")
    scale = max(1.0, operator_norm(m))
    eigs = np.linalg.eigvals(m)
    on_cut = (eigs.real <= tol.eq_tol * scale) & (np.abs(eigs.imag) <= tol.eq_tol * scale)
    if on_cut.any():
        raise SpectrumError(
            "matrix has an eigenvalue on the closed negative real axis; "
            "the principal square root is not defined there"
        )
    q = scipy.linalg.sqrtm(m)
    return np.asarray(q, dtype=complex)


def _binomial_coefficients(lam):
    """Yield (n, binom(lam, n)) for n = 1, 2, ... via the ratio recurrence."""
    c = 1.0 + 0.0j
    n = 0
    while True:
        n += 1
        c = c * (lam - n + 1) / n
        yield n, c


def binomial_series(lam, w, tol=DEFAULT_TOL):
    """Matrix binomial series b_lam(w) = sum_n binom(lam, n) w^n, i.e. (I+w)^lam.

    Requires ||w|| < 1. Truncates once the tail bound
    |binom(lam, n)| ||w||^n / (1 - ||w||) drops below ``tol.series_tol``
    (capped at SERIES_TERM_CAP terms).
    """
    w = _require_square(w, "binomial_series")
    nw = operator_norm(w)
    if nw >= 1.0:
        raise ConvergenceError(f"binomial series requires ||w|| < 1, got {nw:.6g}")
    s = np.eye(w.shape[0], dtype=complex)
    p = np.eye(w.shape[0], dtype=complex)
    for n, c in _binomial_coefficients(lam):
        if c == 0:
            return s
        p = p @ w
        s = s + c * p
        if n >= abs(lam) and abs(c) * nw**n / (1.0 - nw) < tol.series_tol:
            return s
        if n >= SERIES_TERM_CAP:
            raise ConvergenceError(
                f"binomial series did not meet the tail bound in {SERIES_TERM_CAP} terms"
            )
    raise AssertionError("unreachable")


def binomial_series_shifted(lam, w, tol=DEFAULT_TOL):
    """sum_{n>=1} binom(lam, n) w^(n-1), the factor with b_lam(w) = I + w @ (this).

    Same convergence contract as ``binomial_series``.
    """
    w = _require_square(w, "binomial_series_shifted")
    nw = operator_norm(w)
    if nw >= 1.0:
        raise ConvergenceError(f"binomial series requires ||w|| < 1, got {nw:.6g}")
    s = np.zeros_like(w)
    p = np.eye(w.shape[0], dtype=complex)
    for n, c in _binomial_coefficients(lam):
        if c == 0:
            return s
        if n > 1:
            p = p @ w
        s = s + c * p
        if n >= abs(lam) and abs(c) * nw**n / (1.0 - nw) < tol.series_tol:
            return s
        if n >= SERIES_TERM_CAP:
            raise ConvergenceError(
                f"binomial series did not meet the tail bound in {SERIES_TERM_CAP} terms"
            )
    raise AssertionError("unreachable")
