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

The invertibility verdict is the package's hottest kernel. ``try_invert``
inverts first and runs the SVD only on the items whose inverse does not
prove them regular (its docstring gives the proof), and
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
exponents from a table, and forms only the sums its caller names: a curve
value and ``binomial_series_shifted`` take the shifted sum, ``binomial_series``
the full one, each for one scalar lam, and ``binomial_series_grid`` and
``LiouvilleCurve.evaluate`` both. A call whose lams all stop in the first
block is that block's work alone. A call that runs past it takes the later
blocks into the same sums, with numpy's overflow and invalid warnings off,
and the finiteness of the sums it returns is the typed verdict there. Each
ConvergenceError carries the lam, ||w|| and term count it was decided on.

scipy is imported on first use, not with the package: ``principal_sqrt``
loads ``scipy.linalg`` at its first root (it serves midpoints, chains,
transports and ``mobius_map``), as does verify's J-unitary draw (``expm``).
Point evaluations (membership, symmetries, curve values, ``mobius_direct``)
and ``HyperbolicSpec``, whose orthocomplement is numpy's SVD, never load it.
"""

import cmath
import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

from .exceptions import ConvergenceError, ShapeError, SingularMatrixError, SpectrumError

SERIES_TERM_CAP = 10_000
# most powers of w in one SeriesTable
SERIES_BLOCK_CAP = 128
SERIES_TOL = 1e-12
# try_invert's certificate: the LU residual bound it allows, and the largest
# Frobenius condition number ||A|| ||X|| it certifies at any side
CERTIFY_RESIDUAL = 0.05
CERTIFY_KAPPA = 1e6


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


def first_at_least(values, edge):
    """The first of one value, or of an array of them, that is at least ``edge``; None where none is."""
    if not isinstance(values, np.ndarray):
        return values if values >= edge else None
    over = values[values >= edge]
    return over[0] if over.size else None


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
    """z as a complex square matrix of side n >= 1, or with ``stack`` also an (..., n, n) stack of them."""
    z = np.asarray(z, dtype=complex)
    if z.ndim < 2 or (z.ndim > 2 and not stack) or z.shape[-2] != z.shape[-1] or z.shape[-1] == 0:
        raise ShapeError(f"{who} requires a nonempty square matrix, got shape {z.shape}")
    return z


def singular_test(z, tol=DEFAULT_TOL):
    """(smin, singular): the smallest singular value of ``z`` and whether it is not above ``tol.inv_tol``.

    On an (..., n, n) stack both are per item, from one stacked SVD. This is
    the package's one invertibility threshold. ``try_invert`` runs it only on
    the items whose inverse does not already prove them regular, a proof that
    implies this test passes them too, and its verdict differs from this one
    only where LAPACK's LU meets an exact zero pivot: there it is singular. A
    NaN smin, from an inf or NaN entry, is singular. A NaN entry also sets
    numpy's invalid flag, so here, unlike in ``try_invert``, it warns
    "invalid value encountered in svd".
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

    Every item is inverted first (LU with partial pivoting, the ``inv``
    gufunc), and the SVD runs only on the items its inverse X cannot
    certify. An item is certified regular when, with Frobenius norms,
    ||X|| inv_tol < 1/2 and ||A|| ||X|| < ``_kappa_cap(n)``, both finite.
    Then ``singular_test`` would call it regular too, so no verdict differs
    from the SVD route and every inverse is the gufunc's own:

    - Solving A X = I by the LU gives |I - A X| <= g |L||U||X| with
      g = gamma_{3n} in real arithmetic (Higham, Accuracy and Stability of
      Numerical Algorithms, 2002, Thm. 9.4 and sec. 14.3); g = 9 n u / (1 - 9 n u)
      covers complex arithmetic's sqrt(2) gamma_2 products and
      sqrt(2) gamma_4 quotients (sec. 3.6).
    - LAPACK pivots on |Re| + |Im|, so |l_ij| <= sqrt(2): ||L|| <= n and
      ||U|| <= sqrt(n (n + 1) / 2) rho ||A|| with growth rho <= (1 + sqrt(2))^(n-1).
      So eta = ||I - A X|| <= g n sqrt(n (n + 1) / 2) rho ||A|| ||X||, and the
      cap keeps eta <= CERTIFY_RESIDUAL = 0.05 at the worst growth.
    - A X = I - R with ||R|| <= eta < 1, so ||A^-1|| <= ||X|| / (1 - eta) and
      smin(A) >= (1 - eta) / ||X|| > 0.95 * 2 inv_tol = 1.9 inv_tol, and
      kappa_2(A) < CERTIFY_KAPPA / 0.95.
    - The SVD is backward stable: its smin is within p(n) u ||A|| <=
      p(n) u kappa_2 smin(A) of the exact one. At CERTIFY_KAPPA = 1e6 that is
      below 0.47 smin(A) for any p(n) < 4e9, so the computed smin stays above
      1.9 * 0.53 inv_tol > inv_tol.

    The cap is CERTIFY_KAPPA up to n = 12 and falls below 1 from n = 27,
    where nothing is certified. The squared norms and their products are
    formed in floating point: an overflow gives inf and an inf or NaN
    (a non-finite X, or an exact zero pivot) fails the comparison, and an
    underflow happens only where the product it feeds is far below its
    bound. Every item not certified takes the SVD route: singular where
    ``singular_test`` says so or where the LU gave NaN.
    """
    z = _require_square(z, "try_invert", stack=True)
    # the LU of an item with an exact zero pivot, and the SVD of one with a
    # NaN entry, set the invalid flag, and the LU and the norms of a
    # near-singular item may overflow; the verdict covers all of them
    with np.errstate(invalid="ignore", over="ignore"):
        # an item whose LU fails comes back all NaN
        inverses = _umath_linalg.inv(z, signature="D->D")
        if z.ndim == 2:
            if _certified(z, inverses, tol):
                return inverses
            return None if _singular_test(z, tol)[1] or cmath.isnan(inverses[0, 0]) else inverses
        certified = _certified(z, inverses, tol)
        # count_nonzero is the cheapest whole-stack test
        if np.count_nonzero(certified) < certified.size:
            # the items left open take the SVD's verdict
            singular = ~certified
            singular[singular] = _singular_test(z[singular], tol)[1]
            inverses[singular] = np.nan
    # NaN at [0, 0] marks the items judged singular and those whose LU failed
    return inverses, np.isnan(inverses[..., 0, 0])


def _certified(z, inverses, tol):
    """Whether ``inverses`` proves each item of ``z`` regular (``try_invert``'s certificate)."""
    # ||X||^2 inv_tol^2 < 1/4 and (||A|| ||X||)^2 < cap^2; an inv_tol^2 that
    # underflows to 0 leaves only the second test, and rightly: it takes an
    # inv_tol below 1.5e-162, and a finite ||X||^2 an ||X|| below 1.4e154
    n = z.shape[-1]
    inv_tol2 = tol.inv_tol * tol.inv_tol
    x_max2 = 0.25 / inv_tol2 if inv_tol2 else math.inf
    cap2 = _kappa_cap(n) ** 2
    if z.ndim == 2:
        x2 = np.vdot(inverses, inverses).real
        return x2 < x_max2 and x2 * np.vdot(z, z).real < cap2
    items = z.shape[:-2] + (n * n,)
    z, inverses = z.reshape(items), inverses.reshape(items)
    x2 = np.vecdot(inverses, inverses).real
    return (x2 < x_max2) & (x2 * np.vecdot(z, z).real < cap2)


@cache
def _kappa_cap(n):
    """The largest ||A|| ||X|| that ``try_invert`` certifies at side n.

    CERTIFY_KAPPA, or less where the LU residual bound needs it.
    """
    u = 2.0**-53
    g = 9 * n * u / (1 - 9 * n * u)
    # log form: (1 + sqrt(2))^(n-1) overflows a float from n = 806
    log_bound = math.log(g * n * math.sqrt(n * (n + 1) / 2)) + (n - 1) * math.log1p(math.sqrt(2))
    return min(CERTIFY_KAPPA, CERTIFY_RESIDUAL * math.exp(-log_bound))


def invert(z, tol, message):
    """The typed failure: ``try_invert(z, tol)``, raising SingularMatrixError(message) on None.

    On a stack it returns the inverses, and raises where any item is singular.
    """
    z_inv = try_invert(z, tol)
    if isinstance(z_inv, tuple):
        z_inv = None if z_inv[1].any() else z_inv[0]
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
    alone; the norms, spectra and roots come from one stacked call each.
    SpectrumError is raised when any item lies on the cut, before any root
    is taken, with ``index`` the first such item of an (m, n, n) stack.
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

    return np.asarray(scipy.linalg.sqrtm(m), dtype=complex)


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
    root = np.sqrt(gap)
    k, h = b.shape
    left, right = _pad_ones(1.0 / root, k), _pad_ones(root, h)
    return norm, (u * left) @ u.conj().T, (vh.conj().T * right) @ vh


def _pad_ones(x, size):
    """x followed by ones up to ``size`` entries, for the zero singular values past min(k, h)."""
    return x if x.size == size else np.concatenate((x, np.ones(size - x.size)))


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
        raise ConvergenceError(f"binomial series requires ||w|| < 1, got {nw:.6g}", norm=nw)
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


def binomial_series_sum(lams, table, sums=("full", "shifted")):
    """The binomial sums of the table's w named in ``sums``, at every lam in ``lams``, as (m, n, n) stacks.

    ``sums`` names the sums to return, in order: "full" for
    full[i] = sum_{j>=0} binom(lam_i, j) w^j, i.e. (I + w)^lam_i, and
    "shifted" for shifted[i] = sum_{j>=1} binom(lam_i, j) w^(j-1). A caller
    gets only the sums it takes; a sum it does not take is never formed.
    Each lam stops at the first j where binom(lam, j) = 0, or where
    j >= |lam| and the tail bound |binom(lam, j)| ||w||^j / (1 - ||w||)
    drops below SERIES_TOL; at ||w|| = 0 every lam stops at j = 1, since
    w^j = 0 from there on. A lam still running after SERIES_TERM_CAP
    terms raises ConvergenceError. So does, at entry, a lam that is not
    finite or has |lam| > SERIES_TERM_CAP, which that rule can never stop,
    and, for a call that ran past its first block, a returned sum that
    overflowed.
    Each error carries the lam it names, ||w|| and the term count (None
    where none applies).
    The single-value entry points (``binomial_series``,
    ``binomial_series_shifted``, a curve value) take a scalar lam only;
    stacks of exponents come here.

    The powers come in blocks of the table's size: the first block is the
    table, summed with its steps and decay, and each later one is one
    stacked product of the previous block's last power with w, ..., w^size,
    advanced in place in a copy of the table. Each block is contracted with
    its binomial coefficients into the sums, so memory stays
    O(size (n^2 + m)) whatever the term count. When every lam stops in the
    first block, that block is the whole call. One block of coefficients
    cannot overflow for |lam| <= SERIES_TERM_CAP, but a later one can, also
    in the columns past a lam's stop that the sums leave out, so the later
    blocks run with numpy's overflow and invalid warnings off and the
    finiteness of the returned sums is the verdict. The two sums are formed
    separately from the same powers; the full sum is not I + w @ shifted, so
    that identity stays a check.
    """
    nw, powers, steps = table.norm, table.powers, table.steps
    lams = np.asarray(lams, dtype=complex).reshape(-1)
    m, n, size = lams.size, powers.shape[1], len(steps)
    radius = np.abs(lams)[:, None]
    if not radius.max(initial=0.0) <= SERIES_TERM_CAP:
        raise ConvergenceError(
            f"binomial series needs finite exponents with |lam| <= {SERIES_TERM_CAP}",
            lam=complex(lams[~(radius[:, 0] <= SERIES_TERM_CAP)][0]), norm=nw,
        )
    if nw == 0.0:
        # w = 0: every term after j = 1 is exactly zero, so the tail bound holds at once
        radius = 0.0
    # the first block's leading coefficient is 1 and no lam has stopped yet
    block = np.multiply.accumulate((lams[:, None] - steps + 1.0) / steps, axis=1)
    stopped = _cut_block(block, steps.real, table.decay, radius, nw)
    flat = powers.reshape(size + 1, n * n)
    out = {}
    if "full" in sums:
        # the full sum starts from w^0 = I
        out["full"] = block @ flat[1:] + flat[0]
    if "shifted" in sums:
        # the shifted sum starts from zero: adding 0.0 turns an exact zero of
        # the product to +0.0, and a stacked product can give -0.0
        out["shifted"] = block @ flat[:-1]
        out["shifted"] += 0.0
    if not stopped.all():
        with np.errstate(over="ignore", invalid="ignore"):
            # w^(j0+i) = w^j0 w^i, advanced in a copy; the table itself stays as built
            powers, j0 = powers.copy(), 0
            flat = powers.reshape(size + 1, n * n)
            while not stopped.all():
                j0 += size
                if j0 >= SERIES_TERM_CAP:
                    raise ConvergenceError(
                        f"binomial series did not meet the tail bound in {SERIES_TERM_CAP} terms",
                        lam=complex(lams[~stopped][0]), norm=nw, terms=SERIES_TERM_CAP,
                    )
                powers[0] = powers[-1]
                np.matmul(powers[0], table.powers[1:], out=powers[1:])
                j = np.arange(j0 + 1, j0 + size + 1, dtype=float)
                block = block[:, -1:] * np.cumprod((lams[:, None] - j + 1.0) / j, axis=1)
                # a lam stopped in an earlier block takes no more terms
                block[stopped] = 0.0
                stopped = stopped | _cut_block(block, j, nw**j, radius, nw)
                if "full" in out:
                    out["full"] += block @ flat[1:]
                if "shifted" in out:
                    out["shifted"] += block @ flat[:-1]
        finite = np.logical_and.reduce([np.isfinite(v).all(axis=1) for v in out.values()])
        if not finite.all():
            raise ConvergenceError(
                "binomial series overflowed", lam=complex(lams[~finite][0]), norm=nw, terms=j0 + size
            )
    return tuple(out[name].reshape(m, n, n) for name in sums)


def _cut_block(block, j, decay, radius, nw):
    """Zero, in place, each lam's terms past its stop in one block (a row per lam); which lams stopped in it.

    binom(lam, j) = 0 comes only at j > |lam|, where its zero term meets the
    tail bound, so the bound alone finds that stop too.
    """
    done = (j >= radius) & (np.abs(block) * decay / (1.0 - nw) < SERIES_TOL)
    if j[-1] > SERIES_TERM_CAP:
        done &= j <= SERIES_TERM_CAP
    # a lam keeps the term where it stops and drops every later one
    ran_out = np.logical_or.accumulate(done, axis=1)
    block[:, 1:][ran_out[:, :-1]] = 0.0
    return ran_out[:, -1]


def _series_table(w):
    """The SeriesTable of a square w, with ||w|| taken here."""
    w = _require_square(w, "binomial_series_grid")
    return binomial_series_table(w, operator_norm(w))


def binomial_series_grid(lams, w):
    """Both sums of ``binomial_series_sum`` of w at every lam in ``lams``, from a table built for this call.

    Requires ||w|| < 1 (ConvergenceError otherwise).
    """
    return binomial_series_sum(lams, _series_table(w))


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
    (capped at SERIES_TERM_CAP terms); a one-lam ``binomial_series_sum`` that
    forms the full sum only.
    """
    lam = scalar_exponent(lam, "binomial_series_grid")
    return binomial_series_sum(lam, _series_table(w), ("full",))[0][0]


def binomial_series_shifted(lam, w):
    """sum_{n>=1} binom(lam, n) w^(n-1), the factor with b_lam(w) = I + w @ (this).

    Same convergence contract as ``binomial_series``, and a scalar lam; forms
    the shifted sum only.
    """
    lam = scalar_exponent(lam, "binomial_series_grid")
    return binomial_series_sum(lam, _series_table(w), ("shifted",))[0][0]
