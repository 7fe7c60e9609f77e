"""Dense complex matrix kernels used by every other module.

Matrices are plain ``numpy.ndarray`` values with dtype ``complex128``;
``as_cmatrix`` is the validating entry point for data coming from outside
(finite entries, 2-D shape), and ``as_cstack`` the same for a stack of
matrices. Everything here is a pure function.

Every matrix inverse comes from ``try_invert``, the verdict (the inverse or
None; on a stack, the inverses and a per-item singular mask); ``invert`` is
the typed failure (SingularMatrixError in place of None). ``singular_test``
holds the one singular-value threshold that both judge by. Every operator
norm and every smallest singular value in the package is taken here, by
``operator_norm`` and ``singular_test``, or both ends of one spectrum by
``singular_range``; ``ball_roots`` takes ||b|| from the SVD its roots use.

The invertibility verdict is the package's hottest kernel, so
``singular_test`` and ``try_invert`` call LAPACK's gufuncs in
``numpy.linalg._umath_linalg`` directly, not through ``numpy.linalg.svd``
and ``numpy.linalg.inv``, whose per-call promotion, dispatch and
``errstate`` cost more than the work on a 2 x 2 matrix. Their input is
already a complex128 square stack, so they run the loops the public
wrappers pick and give the wrappers' bits; a test in the suite holds them
to that. Where LAPACK's LU meets an exact zero pivot, the inverse gufunc
fills that item with NaN, and ``try_invert`` turns it into the singular
verdict, not numpy's ``LinAlgError``. ``operator_norm``, ``singular_range``,
``ball_roots``, ``hermitian_margin`` and ``principal_sqrt`` stay on numpy's
public functions: the benchmark's tracer counts kernels by patching
``numpy.linalg``, and its self-check and repeat test need calls there.

Square roots come two ways: ``principal_sqrt`` of any matrix off the branch
cut (Schur-based ``sqrtm``), and ``ball_roots``, which gives
(I - b b*)^(-1/2) and (I - b* b)^(1/2) of a matrix b from one SVD of b, the
spectral route of ``mobius_direct``.

The binomial series (I + w)^lam is summed in blocks of powers of w.
``binomial_series_table`` builds, once per w, everything a sum takes that
does not depend on lam: ||w||, the first block of powers, and that block's
steps j and decay ||w||^j. ``binomial_series_sum`` sums any stack of
exponents from a table; a curve value and ``binomial_series`` are one-lam
calls of it and take a scalar lam only. The blocks after the first run with
numpy's overflow and invalid warnings off, and the finiteness of the sums
is the typed verdict there.

scipy is imported on first use, not with the package: ``principal_sqrt``
loads ``scipy.linalg`` at its first root (it serves midpoints, chains,
transports and ``mobius_map``), as do verify's J-unitary draw (``expm``) and
``HyperbolicSpec`` (``null_space``). Point evaluations (membership,
symmetries, curve values, ``mobius_direct``) never load it.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import ConvergenceError, ShapeError, SingularMatrixError, SpectrumError

SERIES_TERM_CAP = 10_000
# most powers of w in one SeriesTable
SERIES_BLOCK_CAP = 128
SERIES_TOL = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """The library's one settable numerical threshold.

    eq_tol   entrywise/operator-norm comparison bound
    inv_tol  smallest-singular-value threshold for invertibility, eq_tol / 10
    """

    eq_tol: float = 1e-9

    def __post_init__(self):
        if not self.eq_tol >= 0:  # also rejects NaN
            raise ValueError("eq_tol must be nonnegative")

    @property
    def inv_tol(self):
        return self.eq_tol / 10.0


DEFAULT_TOL = Tolerance()


def as_cmatrix(data, rows=None, cols=None):
    """Validate and convert array-like data to a 2-D complex128 matrix.

    Rejects non-finite entries and, when ``rows``/``cols`` are given,
    enforces the expected shape.
    """
    a = np.asarray(data, dtype=complex)
    if a.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return _validated(a, rows, cols)


def as_cstack(data, rows=None, cols=None):
    """``as_cmatrix`` for one matrix or an (..., rows, cols) stack of them."""
    a = np.asarray(data, dtype=complex)
    if a.ndim < 2:
        raise ShapeError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    return _validated(a, rows, cols)


def _validated(a, rows, cols):
    """Check the trailing matrix shape and the finiteness of a complex array."""
    if a.shape[-2] == 0 or a.shape[-1] == 0:
        raise ShapeError(f"matrix dimensions must be positive, got {a.shape}")
    # a complex entry is finite exactly when both of its parts are
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/inf)")
    if rows is not None and a.shape[-2] != rows:
        raise ShapeError(f"expected {rows} rows, got {a.shape[-2]}")
    if cols is not None and a.shape[-1] != cols:
        raise ShapeError(f"expected {cols} cols, got {a.shape[-1]}")
    return a


def dagger(z):
    """Conjugate transpose; of each item on an (..., m, n) stack."""
    return np.swapaxes(z.conj(), -1, -2)


def operator_norm(z):
    """Largest singular value of ``z``; on an (..., m, n) stack, one per item from one stacked SVD."""
    z = np.asarray(z, dtype=complex)
    s = np.linalg.svd(z, compute_uv=False)
    return float(s[0]) if z.ndim == 2 else s[..., 0]


def singular_range(z):
    """(largest, smallest) singular value of one matrix, both from one SVD."""
    s = np.linalg.svd(np.asarray(z, dtype=complex), compute_uv=False)
    return float(s[0]), s[-1]


def hermitian_margin(m):
    """Smallest eigenvalue of the Hermitian part (m + m*) / 2; positive iff that part is positive definite.

    On an (..., n, n) stack, one per item from one stacked ``eigvalsh``.
    """
    # eigvalsh sorts ascending
    low = np.linalg.eigvalsh(0.5 * (m + dagger(m)))[..., 0]
    return float(low) if m.ndim == 2 else low


def _require_square(z, who, stack=False):
    """z as a complex square matrix, or with ``stack`` also an (..., n, n) stack of them."""
    z = np.asarray(z, dtype=complex)
    if z.ndim < 2 or (z.ndim > 2 and not stack) or z.shape[-2] != z.shape[-1]:
        raise ShapeError(f"{who} requires a square matrix, got shape {z.shape}")
    return z


def singular_test(z, tol=DEFAULT_TOL):
    """(smin, singular): the smallest singular value of ``z`` and whether it is not above ``tol.inv_tol``.

    On an (..., n, n) stack both are per item, from one stacked SVD. This is
    the package's one invertibility threshold. ``try_invert`` inverts what it
    passes, and differs from it only where LAPACK's LU meets an exact zero
    pivot: there it gives the singular verdict. A NaN smin, from an inf or NaN
    entry, is singular. A NaN entry also sets numpy's invalid flag, so here,
    unlike in ``try_invert``, it warns "invalid value encountered in svd".
    """
    return _singular_test(_require_square(z, "singular_test", stack=True), tol)


def _singular_test(z, tol):
    s = _umath_linalg.svd(z, signature="D->d")
    # s[-1] keeps one matrix's smin a numpy scalar, not a 0-d array
    smin = s[-1] if z.ndim == 2 else s[..., -1]
    return smin, ~(smin > tol.inv_tol)


def try_invert(z, tol=DEFAULT_TOL):
    """The verdict: ``z``^-1, or None where it is singular.

    ``z`` is singular where its smallest singular value is not above
    ``tol.inv_tol`` (``singular_test``), or where LAPACK's LU of it meets an
    exact zero pivot. The package's one matrix inversion. On an (..., n, n)
    stack it returns (inverses, singular) instead: ``singular`` is the
    per-item verdict and ``inverses`` holds each regular item's inverse, NaN
    at singular items. Each item gets exactly the verdict and the inverse of
    a call on it alone. Non-square input raises ShapeError.
    """
    z = _require_square(z, "try_invert", stack=True)
    # the SVD of an item with a NaN entry, and the LU of one with an exact
    # zero pivot, set the invalid flag; both items get the singular verdict
    with np.errstate(invalid="ignore"):
        _, singular = _singular_test(z, tol)
        if z.ndim == 2:
            if singular:
                return None
            some = False
        else:
            some = singular.any()
        # only the regular items are inverted: a singular one may have no
        # inverse. An item whose LU fails comes back all NaN.
        inverses = _umath_linalg.inv(z[~singular] if some else z, signature="D->D")
    if z.ndim == 2:
        return None if cmath.isnan(inverses[0, 0]) else inverses
    if some:
        inverses, regular = np.full(z.shape, np.nan, dtype=complex), inverses
        inverses[~singular] = regular
    # NaN at [0, 0] marks the items judged singular and those whose LU failed
    return inverses, np.isnan(inverses[..., 0, 0])


def invert(z, tol, message):
    """The typed failure: ``try_invert(z, tol)`` on one matrix, raising SingularMatrixError(message) on None."""
    z_inv = try_invert(z, tol)
    if z_inv is None:
        raise SingularMatrixError(message)
    return z_inv


def principal_sqrt(m, tol=DEFAULT_TOL):
    """Principal square root: Q with Q @ Q = m and spectrum in the right half-plane.

    The spectrum of ``m`` must stay off the closed negative real axis; an
    eigenvalue on the cut (within ``tol.eq_tol`` relative to max(1, ||m||))
    raises SpectrumError. Computed by the Schur-based principal branch, which
    also handles defective inputs such as I plus a nilpotent. On an
    (..., n, n) stack, one root per item, each the bits of a call on the item
    alone; the norms and spectra come from one stacked call each, the roots
    from one ``sqrtm`` call per item, since older SciPy releases take no
    stacks there. SpectrumError is raised when any item lies on the cut,
    before any root is taken, with ``index`` the first such item of an
    (m, n, n) stack.
    """
    m = _require_square(m, "principal_sqrt", stack=True)
    norm = operator_norm(m)
    if m.ndim == 2:
        edge = tol.eq_tol * max(1.0, norm)
    else:
        edge = tol.eq_tol * np.maximum(1.0, norm)[..., None]
    eigs = np.linalg.eigvals(m)
    on_cut = (eigs.real <= edge) & (np.abs(eigs.imag) <= edge)
    if on_cut.any():
        raise SpectrumError(
            "matrix has an eigenvalue on the closed negative real axis; "
            "the principal square root is not defined there",
            index=int(np.flatnonzero(on_cut.any(axis=-1))[0]) if m.ndim == 3 else None,
        )
    # imported here, not at module level: scipy.linalg is most of the
    # package's import time, and point evaluations never take a root
    import scipy.linalg

    if m.ndim == 2:
        return np.asarray(scipy.linalg.sqrtm(m), dtype=complex)
    roots = [scipy.linalg.sqrtm(item) for item in m.reshape(-1, *m.shape[-2:])]
    return np.array(roots, dtype=complex).reshape(m.shape)


def ball_roots(b, tol=DEFAULT_TOL):
    """(||b||, (I - b b*)^(-1/2), (I - b* b)^(1/2)) of a k x h matrix b, all from one full SVD.

    With b = U S V* and the singular values s padded by zeros up to k and h,
    the roots are U diag((1 - s^2)^(-1/2)) U* and V diag((1 - s^2)^(1/2)) V*,
    with 1 - s^2 formed as (1 - s)(1 + s). The roots are None where
    ||b|| >= 1, the verdict; a gap 1 - ||b||^2 of at most ``tol.eq_tol``
    raises SpectrumError, the edge ``principal_sqrt`` judges I - b b* by.
    """
    u, s, vh = np.linalg.svd(b)
    norm = float(s[0])
    if norm >= 1.0:
        return norm, None, None
    gap = (1.0 - s) * (1.0 + s)
    if gap[0] <= tol.eq_tol:
        raise SpectrumError(
            f"1 - ||b||^2 = {gap[0]:.3g} is within eq_tol of the branch cut; "
            "the principal square roots of I - b b* and I - b* b are not taken there"
        )
    k, h = b.shape
    left = np.ones(k)
    left[: s.size] = 1.0 / np.sqrt(gap)
    right = np.ones(h)
    right[: s.size] = np.sqrt(gap)
    return norm, (u * left) @ dagger(u), (dagger(vh) * right) @ vh


def _series_block(nw):
    """Terms that bring ||w||^j below the tail bound, between 1 and SERIES_BLOCK_CAP."""
    if nw == 0.0:
        return 1
    target = SERIES_TOL * (1.0 - nw)
    if target == 0.0:
        return SERIES_BLOCK_CAP
    return min(SERIES_BLOCK_CAP, max(1, math.ceil(math.log(target) / math.log(nw))))


@dataclass(frozen=True)
class SeriesTable:
    """Everything a binomial sum of w takes that does not depend on lam.

    norm is ||w|| < 1; powers is the read-only (size + 1, n, n) stack
    w^0, ..., w^size, with size from ``_series_block(norm)``, the first block
    of powers every sum starts from. steps is j = 1, ..., size as complex
    and decay is norm^j, both read-only: the first block's divisors and
    tail-bound factors. A table never changes, so one table serves any
    number of sums.
    """

    norm: float
    powers: np.ndarray
    steps: np.ndarray
    decay: np.ndarray


def binomial_series_table(w, nw):
    """The SeriesTable of a square w whose operator norm the caller has taken as ``nw``.

    Raises ConvergenceError unless nw < 1. The block is built by doubling:
    w^(have+i) = w^have w^i.
    """
    if nw >= 1.0:
        raise ConvergenceError(f"binomial series requires ||w|| < 1, got {nw:.6g}")
    n = w.shape[0]
    size = _series_block(nw)
    powers = np.empty((size + 1, n, n), dtype=complex)
    powers[0] = np.eye(n)
    powers[1] = w
    have = 1
    while have < size:
        more = min(have, size - have)
        np.matmul(powers[have], powers[1 : more + 1], out=powers[have + 1 : have + more + 1])
        have += more
    j = np.arange(1, size + 1, dtype=float)
    # a float divisor is promoted to complex before it divides, so complex
    # steps give the same quotients without the promotion
    steps, decay = j.astype(complex), nw**j
    for a in (powers, steps, decay):
        a.flags.writeable = False
    return SeriesTable(norm=nw, powers=powers, steps=steps, decay=decay)


def binomial_series_sum(lams, table):
    """Both binomial sums of the table's w at every lam in ``lams``, as (m, n, n) stacks.

    Returns (full, shifted) with full[i] = sum_{j>=0} binom(lam_i, j) w^j,
    i.e. (I + w)^lam_i, and shifted[i] = sum_{j>=1} binom(lam_i, j) w^(j-1).
    Each lam stops at the first j where binom(lam, j) = 0, or where
    j >= |lam| and the tail bound |binom(lam, j)| ||w||^j / (1 - ||w||)
    drops below SERIES_TOL; at ||w|| = 0 every lam stops at j = 1, since
    w^j = 0 from there on. A lam still running after SERIES_TERM_CAP
    terms raises ConvergenceError. So does, at entry, a lam that is not
    finite or has |lam| > SERIES_TERM_CAP, which that rule can never stop,
    and, for a call that ran past its first block, a sum that overflowed.
    The single-value entry points (``binomial_series``,
    ``binomial_series_shifted``, a curve value) take a scalar lam only;
    stacks of exponents come here.

    The powers come in blocks of the table's size: the first block is the
    table, summed with its steps and decay, and each later one is one
    stacked product of the previous block's last power with w, ..., w^size,
    advanced in place in a copy of the table. Each block is contracted with
    its binomial coefficients into both sums, so memory stays
    O(size (n^2 + m)) whatever the term count. One block of coefficients
    cannot overflow for |lam| <= SERIES_TERM_CAP; a later one can, also in
    the columns past a lam's stop that the sums leave out, so the later
    blocks run with numpy's overflow and invalid warnings off and the
    finiteness of both sums is the verdict. The two sums are formed
    separately from the same powers; the full sum is not I + w @ shifted,
    so that identity stays a check.
    """
    nw, powers, steps = table.norm, table.powers, table.steps
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    m, n, size = lams.size, powers.shape[1], len(steps)
    radius = np.abs(lams)[:, None]
    if not radius.max(initial=0.0) <= SERIES_TERM_CAP:
        raise ConvergenceError(f"binomial series needs finite exponents with |lam| <= {SERIES_TERM_CAP}")
    if nw == 0.0:
        # w = 0: every term after j = 1 is exactly zero, so the tail bound holds at once
        radius = 0.0
    full = np.zeros((m, n * n), dtype=complex)
    full[:, :: n + 1] = 1.0
    shifted = np.zeros((m, n * n), dtype=complex)
    # the first block's leading coefficient is 1 and no lam has stopped yet
    block = np.cumprod((lams[:, None] - steps + 1.0) / steps, axis=1)
    stopped = _sum_block(block, steps.real, table.decay, None, radius, nw, powers, full, shifted)
    if not stopped.all():
        with np.errstate(over="ignore", invalid="ignore"):
            # w^(j0+i) = w^j0 w^i, advanced in a copy; the table itself stays as built
            powers, j0 = powers.copy(), 0
            while not stopped.all():
                j0 += size
                if j0 >= SERIES_TERM_CAP:
                    raise ConvergenceError(
                        f"binomial series did not meet the tail bound in {SERIES_TERM_CAP} terms"
                    )
                powers[0] = powers[-1]
                np.matmul(powers[0], table.powers[1:], out=powers[1:])
                j = np.arange(j0 + 1, j0 + size + 1, dtype=float)
                block = block[:, -1:] * np.cumprod((lams[:, None] - j + 1.0) / j, axis=1)
                stopped = _sum_block(block, j, nw**j, stopped, radius, nw, powers, full, shifted)
        if not (np.isfinite(full).all() and np.isfinite(shifted).all()):
            raise ConvergenceError("binomial series overflowed")
    return full.reshape(m, n, n), shifted.reshape(m, n, n)


def _sum_block(block, j, decay, stopped, radius, nw, powers, full, shifted):
    """Add one block of terms, w^j from ``powers``, to both sums; the lams stopped after it.

    ``stopped`` (None for the first block) masks out every lam that stopped
    in an earlier block. The block's masked columns are zeroed in place.
    """
    done = (block == 0) | ((j >= radius) & (np.abs(block) * decay / (1.0 - nw) < SERIES_TOL))
    if j[-1] > SERIES_TERM_CAP:
        done &= j <= SERIES_TERM_CAP
    # a lam keeps the term where it stops and drops every later one
    ran_out = np.zeros_like(done)
    np.logical_or.accumulate(done[:, :-1], axis=1, out=ran_out[:, 1:])
    if stopped is not None:
        ran_out |= stopped[:, None]
    block[ran_out] = 0.0
    size = len(powers) - 1
    full += block @ powers[1:].reshape(size, -1)
    shifted += block @ powers[:-1].reshape(size, -1)
    return ran_out[:, -1] | done[:, -1]


def binomial_series_grid(lams, w):
    """``binomial_series_sum`` of w at every lam in ``lams``, from a table built for this call.

    Requires ||w|| < 1 (ConvergenceError otherwise).
    """
    w = _require_square(w, "binomial_series_grid")
    return binomial_series_sum(lams, binomial_series_table(w, operator_norm(w)))


def scalar_exponent(lam, stacked):
    """lam as a 0-d complex array; ShapeError, naming ``stacked``, for an array of exponents."""
    lam = np.asarray(lam, dtype=complex)
    if lam.ndim:
        raise ShapeError(f"expected one exponent, got shape {lam.shape}; {stacked} takes several")
    return lam


def binomial_series(lam, w):
    """Matrix binomial series b_lam(w) = sum_n binom(lam, n) w^n, i.e. (I+w)^lam.

    Requires ||w|| < 1 and a scalar lam. Truncates once the tail bound
    |binom(lam, n)| ||w||^n / (1 - ||w||) drops below SERIES_TOL
    (capped at SERIES_TERM_CAP terms); one-lam call of ``binomial_series_grid``.
    """
    return binomial_series_grid(scalar_exponent(lam, "binomial_series_grid"), w)[0][0]


def binomial_series_shifted(lam, w):
    """sum_{n>=1} binom(lam, n) w^(n-1), the factor with b_lam(w) = I + w @ (this).

    Same convergence contract as ``binomial_series``, and a scalar lam.
    """
    return binomial_series_grid(scalar_exponent(lam, "binomial_series_grid"), w)[1][0]
