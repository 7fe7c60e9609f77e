"""Automorphisms of LFT domains.

Covers the symmetry at a point, the midpoint construction that realizes any
small displacement as a symmetry, chains of symmetries joining two domain
points, the affine maps arising from pairs of symmetries, the point-swapping
involutions, the Potapov-Ginzburg projection transform, the entire curve
through two domain points, and affine equivalences between domains sharing a
common c coefficient up to a right factor.

Operations on a domain, and the chains, swap involutions and curves that hold
it, judge with the domain's Tolerance; potapov_ginzburg_map takes its own.
"""

from dataclasses import dataclass

import numpy as np

from .domains import Domain, LFTMap, lft_apply, require_idempotent
from .exceptions import (
    HypothesisError,
    InternalCheckError,
    PathLeavesDomainError,
    ShapeError,
    SingularMatrixError,
    SpaceClosureError,
    SpectrumError,
    StepBoundError,
)
from .linalg import (
    DEFAULT_TOL,
    SeriesTable,
    as_cmatrix,
    as_cstack,
    binomial_series_sum,
    binomial_series_table,
    hermitian_margin,
    invert,
    operator_norm,
    principal_sqrt,
    singular_range,
    try_invert,
)
from .spaces import is_power_algebra

CHAIN_STEP_CAP = 2**14
# relative inset of each greedy chain step below the margin, so that a step
# norm recomputed from the stored waypoints cannot round past the margin
CHAIN_AIM_INSET = 1e-6


def _require_member(dom, z, what):
    """Validate z as a member of dom; returns z and the inverse (c z + d)^-1."""
    z = as_cmatrix(z, rows=dom.dim_k, cols=dom.dim_h)
    if not dom.space.contains(z, dom.tol):
        raise SpaceClosureError(f"{what} does not belong to the operator space")
    return z, invert(dom.denominator(z), dom.tol, f"c z + d is singular at {what}")


@dataclass(frozen=True)
class AffineMap:
    """The map z -> offset + left (z - base) right, stored in factored form.

    Keeping the two linear factors and the translation explicit makes
    affinity and invertibility structural facts rather than properties to
    be inferred numerically.
    """

    base: np.ndarray
    offset: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        # shapes only: records are built from validated data, and __call__
        # checks the points it is given
        base, offset, left, right = (
            np.asarray(m, dtype=complex) for m in (self.base, self.offset, self.left, self.right)
        )
        k, h = base.shape if base.ndim == 2 else (0, 0)
        if k == 0 or h == 0 or offset.shape != (k, h) or left.shape != (k, k) or right.shape != (h, h):
            raise ShapeError(
                f"inconsistent affine shapes base={base.shape} offset={offset.shape} "
                f"left={left.shape} right={right.shape}"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def identity(cls, dim_k, dim_h):
        zero = np.zeros((dim_k, dim_h), dtype=complex)
        return cls(zero, zero, np.eye(dim_k, dtype=complex), np.eye(dim_h, dtype=complex))

    def __call__(self, z):
        """The image of z, or of each item of an (..., k, h) stack."""
        z = as_cstack(z, rows=self.base.shape[0], cols=self.base.shape[1])
        return self.offset + self.left @ (z - self.base) @ self.right

    def compose(self, inner):
        """The map self(inner(z)) as a single affine record."""
        offset = self.offset + self.left @ (inner.offset - self.base) @ self.right
        return AffineMap(
            base=inner.base,
            offset=offset,
            left=self.left @ inner.left,
            right=inner.right @ self.right,
        )


# ---------------------------------------------------------------------------
# Symmetries


def symmetry_map(dom, y):
    """The involutive automorphism fixing y, as an LFT.

    Blocks are [[-(I - y x), 2 y - y x y], [x, I - x y]] with x the kernel
    (c y + d)^-1 c; the assembled coefficient matrix squares to the identity.
    """
    y, den_inv = _require_member(dom, y, "the symmetry point y")
    return LFTMap(*_symmetry_blocks(dom, y, den_inv @ dom.c))


def _symmetry_blocks(dom, y, x):
    """The blocks (a, b, c, d) of the symmetry at y, given its kernel x = (c y + d)^-1 c.

    On stacks of points and kernels, stacks of blocks.
    """
    eye_k = np.eye(dom.dim_k, dtype=complex)
    eye_h = np.eye(dom.dim_h, dtype=complex)
    yx = y @ x
    return -(eye_k - yx), 2.0 * y - yx @ y, x, eye_h - x @ y


def symmetry_direct(dom, y, z):
    """Evaluate the symmetry at y on z from its defining expression.

    Computes y - (z - y)(c z + d)^-1 (c y + d) without assembling the
    coefficient matrix; kept as an independent evaluation route.
    """
    y = as_cmatrix(y, rows=dom.dim_k, cols=dom.dim_h)
    z = as_cmatrix(z, rows=dom.dim_k, cols=dom.dim_h)
    return _symmetry_at(dom, y, z, dom.denominator_inverse(z))


def _symmetry_at(dom, y, z, z_den_inv):
    """y - (z - y)(c z + d)^-1 (c y + d), given z_den_inv = (c z + d)^-1."""
    return y - (z - y) @ z_den_inv @ dom.denominator(y)


def fixed_point_derivative(dom, y, direction, step=1e-4):
    """Central difference of the symmetry at y, at its fixed point.

    Returns (U(y + t v) - U(y - t v)) / (2 t) with t = step; the exact
    derivative is -v for every direction v in the space.
    """
    if step < 1e-8:
        raise ValueError("finite-difference step below 1e-8 is dominated by roundoff")
    direction = as_cmatrix(direction, rows=dom.dim_k, cols=dom.dim_h)
    if not dom.space.contains(direction, dom.tol):
        raise SpaceClosureError("direction does not belong to the operator space")
    u = symmetry_map(dom, y)
    ahead = lft_apply(u, y + step * direction, dom.tol)
    behind = lft_apply(u, y - step * direction, dom.tol)
    return (ahead - behind) / (2.0 * step)


def find_midpoint(dom, z, w):
    """The point y whose symmetry sends z to w.

    Valid when r = w - z satisfies ||x r|| < 1 for x the kernel at z; then
    y = z + r (I + q)^-1 with q the principal square root of I + x r. The
    midpoint is guaranteed to land in the domain; a numerical violation is
    an internal error, not bad input.
    """
    z, z_den_inv = _require_member(dom, z, "the start point z")
    w, _ = _require_member(dom, w, "the end point w")
    return _midpoints(dom, z, z_den_inv, w)[0]


def _midpoints(dom, z, z_den_inv, w):
    """The points y whose symmetries send the members z to w, and (c y + d)^-1.

    Takes one member z, its end point w and z_den_inv = (c z + d)^-1, or
    (m, k, h) stacks of each. A stack gets each check on the whole stack at
    once, and each item the bits of a construction on it alone; one member
    takes the single-matrix path of every check. The inversion that checks
    y's membership is redundant in exact arithmetic, since
    c y + d = (c z + d) q, but it is kept: it guards against ill conditioned
    input and yields y's kernel.

    A construction on one item would stop at its first failed check, so an
    item that fails is dropped from later checks together with every item
    after it, and the error raised is that of the first failing item.
    """
    eye = np.eye(dom.dim_h, dtype=complex)
    single = z.ndim == 2
    live = ... if single else slice(len(z))  # the items that have passed every check so far
    failure = None

    def drop_from(bad, error):
        # bad holds one verdict per live item
        nonlocal live, failure
        if single:
            if bad:
                raise error(0)
        elif bad.any():
            live = slice(int(bad.argmax()))
            failure = error(live.stop)
            if live.stop == 0:
                raise failure

    def verdict(inverse):
        # try_invert's result as (inverses, singular), also on one matrix
        return (inverse, inverse is None) if single else inverse

    x = z_den_inv @ dom.c
    r = w - z
    xr = x @ r
    bound = operator_norm(xr)
    drop_from(bound >= 1.0, lambda i: StepBoundError(
        f"step bound ||x (w - z)|| < 1 fails: got {np.ravel(bound)[i]:.6g}; "
        "subdivide the displacement"
    ))
    while True:
        try:
            q = principal_sqrt(eye + xr[live], dom.tol)
            break
        except SpectrumError as exc:
            drop_from(single or np.arange(live.stop) == exc.index, lambda i: exc)
    den_inv, singular = verdict(try_invert(eye + q, dom.tol))
    drop_from(singular, lambda i: InternalCheckError("I + q is singular although ||x r|| < 1"))
    y = z[live] + r[live] @ den_inv[live]
    y_den_inv, singular = verdict(dom.try_denominator_inverse(y))
    drop_from(singular | ~dom.space.contains(y, dom.tol), lambda i: InternalCheckError(
        "midpoint fell outside the domain; ill conditioned input"
    ))
    y, y_den_inv, z, w = y[live], y_den_inv[live], z[live], w[live]
    reached = _symmetry_at(dom, y, z, z_den_inv[live])
    drop_from(operator_norm(reached - w) > 1e-6 * (1.0 + operator_norm(w)), lambda i: (
        InternalCheckError("midpoint symmetry failed to reproduce the target point")
    ))
    if failure is not None:
        raise failure
    return y, y_den_inv


# ---------------------------------------------------------------------------
# Transitive chains


@dataclass(frozen=True)
class AutomorphismChain:
    """Symmetries of domain whose composition carries its base point z0 to target.

    factors[i] maps waypoints[i] to waypoints[i+1]; midpoints[i] is the
    fixed point of factors[i]. The factor count is even, so consecutive
    pairs fold into affine maps; `affine` is the full folded composition.
    step_norms[i] is ||x_i (waypoints[i+1] - waypoints[i])||, each below the
    subdivision margin. residual is the defect of the composite at z0.
    coefficients[i] is the coefficient matrix of factors[i], whose blocks
    are views of it.
    """

    domain: Domain
    target: np.ndarray
    waypoints: tuple
    midpoints: tuple
    factors: tuple
    coefficients: np.ndarray
    affine: AffineMap
    step_norms: tuple
    residual: float

    @property
    def factor_count(self):
        return len(self.factors)

    def apply(self, z):
        """Apply the factors in order (numerically preferable to one big LFT).

        A single z whose denominator is singular at some factor raises
        SingularMatrixError. On an (m, k, h) stack of probes, returns
        (images, singular): a probe that meets a singular denominator is
        marked in ``singular``, gets a NaN image and leaves the stack, so the
        later factors see only live probes. Each probe gets exactly the image
        or the failure of a call on it alone.
        """
        dom = self.domain
        zs = as_cstack(z, rows=dom.dim_k, cols=dom.dim_h)
        if zs.ndim > 3:
            raise ShapeError(f"expected one matrix or an (m, k, h) stack, got shape {zs.shape}")
        if zs.ndim == 2:
            images, singular = self.apply(zs[None])
            if singular[0]:
                raise SingularMatrixError("linear fractional map denominator c z + d is singular")
            return images[0]
        live = np.arange(len(zs))
        out = zs
        for f in self.factors:
            den_inv, singular = try_invert(f.c @ out + f.d, dom.tol)
            if singular.any():
                keep = ~singular
                live, out, den_inv = live[keep], out[keep], den_inv[keep]
                if not live.size:
                    break
            out = (f.a @ out + f.b) @ den_inv
        images = np.full(zs.shape, np.nan, dtype=complex)
        images[live] = out
        singular = np.ones(len(zs), dtype=bool)
        singular[live] = False
        return images, singular

    def as_lft(self):
        """Compose all coefficient matrices into a single LFTMap."""
        total = LFTMap.identity(*self.waypoints[0].shape)
        for f in self.factors:
            total = f.compose(total)
        return total


def _meets_singular_set(dom, xr):
    """Whether I + t xr is singular for some t in (0, 1].

    Along w = a + t r the denominator factors as C w + D = (C a + D)(I + t x_a r),
    so the segment meets the singular set exactly when x_a r has a real
    eigenvalue at most -1. Rounding can push such an eigenvalue off the real
    axis (by about the square root of machine epsilon when it is defective),
    so each eigenvalue with real part at most -1 is judged by the smallest
    singular value of I + t xr at t = -1 / Re(lam) instead.
    """
    eye = np.eye(xr.shape[0], dtype=complex)
    for lam in np.linalg.eigvals(xr):
        if lam.real <= -1.0:
            top, smin = singular_range(eye - xr / lam.real)
            if smin <= dom.tol.eq_tol * (1.0 + top):
                return True
    return False


def _walk_polyline(dom, points, margin, max_steps, user_path):
    """Walk each polyline segment in greedy steps that obey the bound.

    On the segment z = a + t (b - a) the step bound is linear in the next
    parameter, ||x_z (a + t' (b - a) - z)|| = (t' - t) ||x_z (b - a)||, so
    each step goes straight to t' = min(1, t + aim / ||x_z (b - a)||) with
    aim = margin (1 - CHAIN_AIM_INSET). No subdivision whose steps all stay
    within aim takes fewer steps, because t + aim / ||x_z (b - a)|| never
    decreases along the segment.

    Every point within the bound is a member, since
    C w + D = (C z + D)(I + x_z (w - z)), so the only check per waypoint is
    the inversion that yields its kernel. Returns the waypoints (both
    endpoints included; every vertex of the polyline among them), the
    inverses (C w + D)^-1 at them, and the per-step norms ||x (next - prev)||.
    """
    hint = (
        "refine the supplied path away from the singular set"
        if user_path
        else "supply an explicit path avoiding the singular set"
    )
    aim = margin * (1.0 - CHAIN_AIM_INSET)
    den_inv = dom.denominator_inverse(points[0])
    waypoints = [points[0]]
    den_invs = [den_inv]
    step_norms = []
    x = den_inv @ dom.c
    for seg, (a, b) in enumerate(zip(points, points[1:])):
        r = b - a
        if _meets_singular_set(dom, x @ r):
            raise PathLeavesDomainError(
                f"segment {seg} of the path crosses the singular set at or after "
                f"waypoint {len(waypoints)}; {hint}",
                index=len(waypoints),
            )
        t = 0.0
        for _ in range(max_steps):
            pull = operator_norm(x @ r)
            t_next = 1.0 if pull * (1.0 - t) <= aim else t + aim / pull
            w = b if t_next == 1.0 else a + t_next * r
            den_inv = dom.try_denominator_inverse(w)
            if den_inv is None:
                raise PathLeavesDomainError(
                    f"waypoint {len(waypoints)} of the path is not a domain member "
                    f"(singular); {hint}",
                    index=len(waypoints),
                )
            waypoints.append(w)
            den_invs.append(den_inv)
            step_norms.append((t_next - t) * pull)
            x = den_inv @ dom.c
            t = t_next
            if t == 1.0:
                break
        else:
            raise StepBoundError(
                "cannot satisfy the step bound ||(c z + d)^-1 c (z' - z)|| < 1 "
                f"within {max_steps} steps on segment {seg}; the path runs too close to "
                "the singular set"
            )
    return waypoints, den_invs, step_norms


def transitive_chain(dom, target, path=None, margin=0.9, max_steps=CHAIN_STEP_CAP):
    """Build a chain of symmetries mapping the domain base point to target.

    The default route is the straight segment; a path (sequence of domain
    members from base point to target) overrides it. Each segment is walked
    in greedy steps with ||(c z + d)^-1 c (z' - z)|| <= margin, one symmetry
    factor per step via the midpoint construction; max_steps caps the steps
    on one segment. A segment that crosses the singular set raises
    PathLeavesDomainError before any step is taken. An odd factor count is
    fixed by prepending the symmetry at the base point, which the composite
    result absorbs.
    """
    if not 0.0 < margin < 1.0:
        raise ValueError("margin must lie strictly between 0 and 1")
    source = dom.z0
    target, _ = _require_member(dom, target, "the chain target")
    if path is None:
        points = [source, target]
        user_path = False
    else:
        points = [as_cmatrix(p, rows=dom.dim_k, cols=dom.dim_h) for p in path]
        if len(points) < 2:
            raise ValueError("a path needs at least its two endpoints")
        if operator_norm(points[0] - source) > dom.tol.eq_tol * (1.0 + operator_norm(source)):
            raise ValueError("path must start at the domain base point")
        if operator_norm(points[-1] - target) > dom.tol.eq_tol * (1.0 + operator_norm(target)):
            raise ValueError("path must end at the target")
        for i, p in enumerate(points):
            if not dom.is_member(p):
                raise PathLeavesDomainError(
                    f"supplied path point {i} is not a domain member", index=i
                )
        user_path = True

    waypoints, den_invs, step_norms = _walk_polyline(dom, points, margin, max_steps, user_path)
    if len(waypoints) % 2 == 0:
        # odd number of steps; duplicate the source so the factor count is even
        # (a supplied path starts within eq_tol of the source, not at it)
        source_den_inv = den_invs[0] if waypoints[0] is source else dom.denominator_inverse(source)
        waypoints = [source] + waypoints
        den_invs = [source_den_inv] + den_invs
        step_norms = [0.0] + step_norms

    # the factors are built as stacks: each reuses the walk's inversion at
    # its start, and the midpoint's membership check supplies its kernel
    stops = np.stack(waypoints)
    midpoints, mid_den_invs = _midpoints(dom, stops[:-1], np.stack(den_invs[:-1]), stops[1:])
    kernels = mid_den_invs @ dom.c
    k, h = dom.dim_k, dom.dim_h
    coefficients = np.empty((len(midpoints), k + h, k + h), dtype=complex)
    (coefficients[:, :k, :k], coefficients[:, :k, k:], coefficients[:, k:, :k],
     coefficients[:, k:, k:]) = _symmetry_blocks(dom, midpoints, kernels)
    factors = tuple(LFTMap.from_coefficient_matrix(m, k, h) for m in coefficients)

    # fold the pairs (U_{y[i+1]} after U_{y[i]}) as one stack, then compose them in order
    pairs = _pair_fold(dom, midpoints[1::2], midpoints[::2], mid_den_invs[::2], kernels[::2])
    affine = AffineMap.identity(k, h)
    for pair in zip(*pairs):
        affine = AffineMap(*pair).compose(affine)
    # rebase so the record is anchored at the source
    affine = AffineMap(base=source, offset=affine(source), left=affine.left, right=affine.right)

    reached = source
    for f in factors:
        reached = lft_apply(f, reached, dom.tol)
    residual = float(operator_norm(reached - target))

    return AutomorphismChain(
        domain=dom,
        target=target,
        waypoints=tuple(waypoints),
        midpoints=tuple(midpoints),
        factors=factors,
        coefficients=coefficients,
        affine=affine,
        step_norms=tuple(step_norms),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Affine maps from symmetry pairs and the base-point transport


def compose_symmetries_affine(dom, w, y):
    """The composition (symmetry at w) after (symmetry at y), folded to affine form.

    Equals U_w(U_y(z)) pointwise; the c block of the product coefficient
    matrix vanishes, leaving offset U_w(y) with linear factors
    I + (w - y) x and I + x (w - y), x the kernel at y.
    """
    w, _ = _require_member(dom, w, "the outer symmetry point w")
    y, y_den_inv = _require_member(dom, y, "the inner symmetry point y")
    return AffineMap(*_pair_fold(dom, w, y, y_den_inv, y_den_inv @ dom.c))


def _pair_fold(dom, w, y, y_den_inv, x):
    """(base, offset, left, right) of U_w after U_y, given (c y + d)^-1 and the kernel x at y.

    On stacks of pairs, stacks of each.
    """
    d = w - y
    left = np.eye(dom.dim_k, dtype=complex) + d @ x
    right = np.eye(dom.dim_h, dtype=complex) + x @ d
    return y, _symmetry_at(dom, w, y, y_den_inv), left, right


def affine_transport(dom, w0):
    """The affine automorphism carrying the base point to w0.

    phi(z) = w0 + (I + (w0 - z0) x0)^(1/2) (z - z0) (I + x0 (w0 - z0))^(1/2),
    defined when ||x0 (w0 - z0)|| < 1.
    """
    w0, _ = _require_member(dom, w0, "the transport target w0")
    a = w0 - dom.z0
    bound = operator_norm(dom.x0 @ a)
    if bound >= 1.0:
        raise StepBoundError(
            f"transport requires ||x0 (w0 - z0)|| < 1; got {bound:.6g}"
        )
    left = principal_sqrt(np.eye(dom.dim_k, dtype=complex) + a @ dom.x0, dom.tol)
    right = principal_sqrt(np.eye(dom.dim_h, dtype=complex) + dom.x0 @ a, dom.tol)
    return AffineMap(base=dom.z0, offset=w0, left=left, right=right)


def affine_transport_identity_residual(dom, phi, z):
    """Residual of I + x0 (phi(z) - z0) = r^(1/2) (I + x0 (z - z0)) r^(1/2).

    Here r^(1/2) is the right factor of the transport record; a small value
    certifies that phi preserves the domain.
    """
    z = as_cmatrix(z, rows=dom.dim_k, cols=dom.dim_h)
    eye = np.eye(dom.dim_h, dtype=complex)
    lhs = eye + dom.x0 @ (phi(z) - dom.z0)
    rhs = phi.right @ (eye + dom.x0 @ (z - dom.z0)) @ phi.right
    return float(operator_norm(lhs - rhs))


# ---------------------------------------------------------------------------
# Point-swapping involutions


@dataclass(frozen=True)
class SwapInvolution:
    """The involutive automorphism of domain exchanging its base point z0 with w0.

    v(z) = z0 - gl (z - z0 - a) (I + x0 (z - z0))^-1 gr with a = w0 - z0,
    gl = (I + a x0)^(-1/2) and gr = (I + x0 a)^(1/2). Satisfies v(v(z)) = z,
    and for w0 = z0 it reduces to the symmetry at z0.
    """

    domain: Domain
    w0: np.ndarray
    gl: np.ndarray
    gr: np.ndarray

    def __call__(self, z):
        dom = self.domain
        z = as_cmatrix(z, rows=dom.dim_k, cols=dom.dim_h)
        den_inv = dom.denominator_inverse(z) @ dom.denominator(dom.z0)  # (I + x0 (z - z0))^-1
        a = self.w0 - dom.z0
        return dom.z0 - self.gl @ (z - dom.z0 - a) @ den_inv @ self.gr

    def as_lft(self):
        """The same map as explicit LFT blocks (independent evaluation route)."""
        z0, x0 = self.domain.z0, self.domain.x0
        gr_inv = invert(self.gr, self.domain.tol, "I + x0 (w0 - z0) has no invertible square root")
        c = gr_inv @ x0
        d = gr_inv @ (np.eye(self.domain.dim_h, dtype=complex) - x0 @ z0)
        a_blk = z0 @ gr_inv @ x0 - self.gl
        b_blk = z0 @ d + self.gl @ self.w0
        return LFTMap(a_blk, b_blk, c, d)


def swap_involution(dom, w0):
    """Build the involution exchanging the base point with w0.

    Its factors are those of the affine transport to w0: gl inverts the
    transport's left factor and gr is its right factor, so the transport's
    hypothesis ||x0 (w0 - z0)|| < 1 applies.
    """
    phi = affine_transport(dom, w0)
    gl = invert(phi.left, dom.tol, "I + (w0 - z0) x0 has no invertible square root")
    return SwapInvolution(domain=dom, w0=phi.offset, gl=gl, gr=phi.right)


# ---------------------------------------------------------------------------
# Potapov-Ginzburg transform


def _square_projection(e):
    e = as_cmatrix(e)
    if e.shape[0] != e.shape[1]:
        raise ShapeError("projection must be square")
    return e


def signature_from_projection(e):
    """J = I - 2e; an involution (J^2 = I) whenever e is idempotent."""
    e = _square_projection(e)
    return np.eye(e.shape[0], dtype=complex) - 2.0 * e


def form_margin(z, j):
    """Smallest eigenvalue of j - z* j z; positive inside the j-contractive set."""
    z = as_cmatrix(z)
    j = as_cmatrix(j, rows=z.shape[0], cols=z.shape[0])
    return hermitian_margin(j - z.conj().T @ j @ z)


def ball_margin(z):
    """1 - ||z||; positive inside the open unit ball."""
    return float(1.0 - operator_norm(as_cmatrix(z)))


def potapov_ginzburg_map(e, tol=DEFAULT_TOL):
    """The involutive LFT z -> ((e - I) z + e)(e z + I - e)^-1 of a projection e.

    Exchanges the j-contractive set {z : z* j z < j}, j = I - 2e, with the
    open unit norm ball, on the set where the denominator stays invertible.
    """
    e = _square_projection(e)
    require_idempotent(e, tol)
    eye = np.eye(e.shape[0], dtype=complex)
    return LFTMap(e - eye, e, e, eye - e)


# ---------------------------------------------------------------------------
# The entire curve through two domain points


@dataclass(frozen=True)
class LiouvilleCurve:
    """An entire curve f with f(0) = z0, f(1) = z, staying inside domain.

    f(lam) = z0 + (z - z0) sum_{n>=1} binom(lam, n) w^(n-1) with
    w = x0 (z - z0); the normalized denominator along the curve equals the
    binomial series (I + w)^lam, which is invertible for every lam. table
    holds the powers of w that every value is summed from, built once.
    """

    domain: Domain
    z: np.ndarray
    w: np.ndarray
    den0_inv: np.ndarray
    table: SeriesTable

    def __call__(self, lam):
        z0 = self.domain.z0
        return z0 + (self.z - z0) @ binomial_series_sum([lam], self.table)[1][0]

    def evaluate(self, lams):
        """(f(lam), b(lam)) stacks over every lam in ``lams``, from one series evaluation."""
        z0 = self.domain.z0
        full, shifted = binomial_series_sum(lams, self.table)
        return z0 + (self.z - z0) @ shifted, full

    def identity_residuals(self, values, factors):
        """Residuals of (c z0 + d)^-1 (c f + d) = b over stacks of f(lam) and b(lam)."""
        lhs = self.den0_inv @ (self.domain.c @ values + self.domain.d)
        return operator_norm(lhs - factors)


def liouville_curve(dom, z):
    """Construct the entire curve joining the base point to z.

    Requires ||x0 (z - z0)|| < 1 for the series to converge.
    """
    z, _ = _require_member(dom, z, "the curve endpoint z")
    w = dom.x0 @ (z - dom.z0)
    bound = operator_norm(w)
    if bound >= 1.0:
        raise StepBoundError(f"curve requires ||x0 (z - z0)|| < 1; got {bound:.6g}")
    return LiouvilleCurve(
        domain=dom,
        z=z,
        w=w,
        den0_inv=dom.denominator_inverse(dom.z0),
        table=binomial_series_table(w, bound),
    )


# ---------------------------------------------------------------------------
# Affine equivalence of two domains with c2 = c1 r


@dataclass(frozen=True)
class AffineEquivalence:
    """An affine bijection phi between two domains with c2 = c1 r.

    phi(z) = z2 + r^-1 (z - z1)(c1 z1 + d1)^-1 (c2 z2 + d2); the denominator
    identity c2 phi(z) + d2 = (c1 z + d1)(c1 z1 + d1)^-1 (c2 z2 + d2)
    certifies that phi carries the first domain onto the second.
    """

    phi: AffineMap
    r: np.ndarray
    dom1: Domain
    dom2: Domain

    def __call__(self, z):
        return self.phi(z)

    def certificate_residual(self, z):
        """Defect of the denominator identity at z; phi.right is (c1 z1 + d1)^-1 (c2 z2 + d2)."""
        z = as_cmatrix(z, rows=self.dom1.dim_k, cols=self.dom1.dim_h)
        lhs = self.dom2.denominator(self.phi(z))
        rhs = self.dom1.denominator(z) @ self.phi.right
        return float(operator_norm(lhs - rhs))


def affine_equivalence(dom1, dom2, r, z1, z2):
    """Affine map between two domains whose c blocks differ by a right factor.

    Both domains must live on the same space, which must be full or a power
    algebra containing all four coefficient blocks; r must be invertible
    with c2 = c1 r; z1 and z2 are members of their respective domains and
    phi(z1) = z2. dom1.tol judges the shared-space, r and c2 = c1 r checks;
    z1 and z2 are each checked against their own domain.
    """
    tol = dom1.tol
    if dom1.space.shape != dom2.space.shape:
        raise ShapeError("domains live on different matrix shapes")
    same = all(dom2.space.contains(b, tol) for b in dom1.space.basis) and all(
        dom1.space.contains(b, tol) for b in dom2.space.basis
    )
    if not same:
        raise HypothesisError("domains must share one operator space")
    space = dom1.space
    if not space.is_full:
        if not (space.is_square and is_power_algebra(space, tol)):
            raise HypothesisError(
                "equivalence needs a full space or a power algebra with the coefficients in it"
            )
        for blk, name in (
            (dom1.c, "c1"),
            (dom1.d, "d1"),
            (dom2.c, "c2"),
            (dom2.d, "d2"),
        ):
            if not space.contains(blk, tol):
                raise HypothesisError(f"coefficient {name} is outside the power algebra")
    r = as_cmatrix(r, rows=dom1.dim_k, cols=dom1.dim_k)
    r_inv = invert(r, tol, "r must be invertible")
    defect = operator_norm(dom2.c - dom1.c @ r)
    if defect > tol.eq_tol * (1.0 + operator_norm(dom2.c)):
        raise HypothesisError(f"c2 = c1 r fails with defect {defect:.3g}")
    z1, z1_den_inv = _require_member(dom1, z1, "z1")
    z2, _ = _require_member(dom2, z2, "z2")
    right = z1_den_inv @ dom2.denominator(z2)
    phi = AffineMap(base=z1, offset=z2, left=r_inv, right=right)
    return AffineEquivalence(phi=phi, r=r, dom1=dom1, dom2=dom2)
