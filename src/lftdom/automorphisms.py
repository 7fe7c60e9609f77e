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

from dataclasses import dataclass, replace

import numpy as np

from .domains import Domain, LFTMap, lft_apply, lft_images, require_idempotent
from .exceptions import (
    HypothesisError,
    InternalCheckError,
    PathLeavesDomainError,
    ShapeError,
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
    dagger,
    first_at_least,
    hermitian_margin,
    invert,
    operator_norm,
    principal_sqrt,
    scalar_exponent,
    singular_range,
    try_invert,
)
from .spaces import is_power_algebra

# bound on every chain step ||(c z + d)^-1 c (z' - z)||; the construction
# needs only < 1, and the steps on one segment are capped at CHAIN_STEP_CAP
CHAIN_MARGIN = 0.9
CHAIN_STEP_CAP = 2**14
# relative inset of each greedy chain step below the margin, so that a step
# norm recomputed from the stored waypoints cannot round past the margin
CHAIN_AIM_INSET = 1e-6
# central-difference step of fixed_point_derivative
DERIVATIVE_STEP = 1e-4


def _require_member(dom, z, what, stack=False):
    """Validate z as a member of dom; returns z and the inverse (c z + d)^-1.

    With ``stack``, z may also be an (m, k, h) stack, and every item must be
    a member: the errors are those of one z.
    """
    z = (as_cstack if stack else as_cmatrix)(z, rows=dom.dim_k, cols=dom.dim_h)
    inside = dom.space.contains(z, dom.tol)
    if not (inside if z.ndim == 2 else inside.all()):
        raise SpaceClosureError(f"{what} does not belong to the operator space")
    return z, invert(dom.denominator(z), dom.tol, f"c z + d is singular at {what}")


@dataclass(frozen=True)
class AffineMap:
    """The map z -> offset + left (z - base) right, stored in factored form.

    Keeping the two linear factors and the translation explicit makes
    affinity and invertibility structural facts rather than properties to
    be inferred numerically. A stack of m maps holds (m, ., .) stacks, one
    base may serve them all, and it takes one point or an (m, k, h) stack,
    item i to map i.
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
        k, h = base.shape[-2:] if base.ndim in (2, 3) else (0, 0)
        lead = offset.shape[:-2]
        if (
            k == 0 or h == 0 or base.shape[:-2] not in ((), lead) or offset.shape != (*lead, k, h)
            or left.shape != (*lead, k, k) or right.shape != (*lead, h, h)
        ):
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
        z = as_cstack(z, rows=self.base.shape[-2], cols=self.base.shape[-1])
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
    On an (m, k, h) stack of points, the stack of their m symmetries.
    """
    y, den_inv = _require_member(dom, y, "the symmetry point y", stack=True)
    return LFTMap._of_blocks(*_symmetry_blocks(dom, y, den_inv @ dom.c), dom.tol)


def _symmetry_blocks(dom, y, x):
    """The blocks (a, b, c, d) of the symmetry at y, given its kernel x = (c y + d)^-1 c.

    On stacks of points and kernels, stacks of blocks.
    """
    yx = y @ x
    # -(I - yx), not yx - I: where an entry of yx equals I's, the first
    # gives -0.0 and the second +0.0
    return -(dom.eye_k - yx), 2.0 * y - yx @ y, x, dom.eye_h - x @ y


def symmetry_direct(dom, y, z):
    """Evaluate the symmetry at y on z from its defining expression.

    Computes y - (z - y)(c z + d)^-1 (c y + d) without assembling the
    coefficient matrix; kept as an independent evaluation route. One y and
    one z raise SingularMatrixError where c z + d is singular. Where either
    is an (m, k, h) stack, item i takes y[i] and z[i], or the one y or z
    given, and it returns (values, singular) as ``lft_apply`` does: a
    singular item's value is NaN, and each item gets the value and the
    verdict of a call on it alone.
    """
    y = as_cstack(y, rows=dom.dim_k, cols=dom.dim_h)
    z = as_cstack(z, rows=dom.dim_k, cols=dom.dim_h)
    if y.ndim == 2 == z.ndim:
        return _symmetry_at(dom, y, z, dom.denominator_inverse(z))
    z = np.broadcast_to(z, np.broadcast_shapes(y.shape, z.shape))
    z_den_inv, singular = dom.try_denominator_inverse(z)
    return _symmetry_at(dom, y, z, z_den_inv), singular


def _symmetry_at(dom, y, z, z_den_inv):
    """y - (z - y)(c z + d)^-1 (c y + d), given z_den_inv = (c z + d)^-1."""
    return y - (z - y) @ z_den_inv @ dom.denominator(y)


def fixed_point_derivative(dom, y, direction):
    """Central difference of the symmetry at y, at its fixed point.

    Returns (U(y + t v) - U(y - t v)) / (2 t) with t = DERIVATIVE_STEP; the
    exact derivative is -v for every direction v in the space. On (m, k, h)
    stacks of points and directions, returns (derivatives, singular) as
    lft_apply does, from one stack of symmetries: an item is singular where
    either of its evaluations is.
    """
    direction = as_cstack(direction, rows=dom.dim_k, cols=dom.dim_h)
    inside = dom.space.contains(direction, dom.tol)
    if not (inside if direction.ndim == 2 else inside.all()):
        raise SpaceClosureError("direction does not belong to the operator space")
    return _central_difference(symmetry_map(dom, y), y, direction)


def _central_difference(image, y, direction):
    """fixed_point_derivative from ``image``, the evaluation of the symmetry at y or of a stack of them.

    ``image`` takes points to their images: the symmetry itself, whose call
    is ``lft_apply``, or ``lft_images`` of it.
    """
    ahead = image(y + DERIVATIVE_STEP * direction)
    behind = image(y - DERIVATIVE_STEP * direction)
    if not isinstance(ahead, tuple):
        return (ahead - behind) / (2.0 * DERIVATIVE_STEP)
    (ahead, ahead_singular), (behind, behind_singular) = ahead, behind
    return (ahead - behind) / (2.0 * DERIVATIVE_STEP), ahead_singular | behind_singular


def find_midpoint(dom, z, w):
    """The point y whose symmetry sends z to w.

    Valid when r = w - z satisfies ||x r|| < 1 for x the kernel at z; then
    y = z + r (I + q)^-1 with q the principal square root of I + x r. The
    midpoint is guaranteed to land in the domain; a numerical violation is
    an internal error, not bad input. On one z and w it is ``_midpoints`` on
    a stack of one, and a SpectrumError names no item; on (m, k, h) stacks
    of z and w, the stack of their m midpoints by ``_midpoints``' stack rule.
    """
    z, z_den_inv = _require_member(dom, z, "the start point z", stack=True)
    w, _ = _require_member(dom, w, "the end point w", stack=True)
    if z.ndim != 2 or w.ndim != 2:
        return _midpoints(dom, z, z_den_inv, w)[0]
    try:
        return _midpoints(dom, z[None], z_den_inv[None], w[None])[0][0]
    except SpectrumError as exc:
        exc.index = None
        raise


def _midpoints(dom, z, z_den_inv, w):
    """The points y whose symmetries send the members z to w, and (c y + d)^-1.

    Takes (m, k, h) stacks of members z, their end points w and
    z_den_inv = (c z + d)^-1. Each check runs once on the stack and raises
    the error of the first item it flags; a SpectrumError from the square
    root carries that item's position as its index. Each item gets the bits
    of a construction on it alone. The inversion that checks y's membership
    is redundant in exact arithmetic, since c y + d = (c z + d) q, but it is
    kept: it guards against ill conditioned input and yields y's kernel.
    A chain's factor blocks are views of the block stacks built from these
    midpoints, not of its coefficients.
    """
    x = z_den_inv @ dom.c
    r = w - z
    xr = x @ r
    bound = first_at_least(operator_norm(xr), 1.0)
    if bound is not None:
        raise StepBoundError(
            f"step bound ||x (w - z)|| < 1 fails: got {bound:.6g}; "
            "subdivide the displacement"
        )
    q = principal_sqrt(dom.eye_h + xr, dom.tol)
    den_inv, singular = try_invert(dom.eye_h + q, dom.tol)
    if singular.any():
        raise InternalCheckError("I + q is singular although ||x r|| < 1")
    y = z + r @ den_inv
    y_den_inv, singular = dom.try_denominator_inverse(y)
    if (singular | ~dom.space.contains(y, dom.tol)).any():
        raise InternalCheckError("midpoint fell outside the domain; ill conditioned input")
    # both norms from one call
    gap, size = operator_norm(np.array((_symmetry_at(dom, y, z, z_den_inv) - w, w)))
    if (gap > 1e-6 * (1.0 + size)).any():
        raise InternalCheckError("midpoint symmetry failed to reproduce the target point")
    return y, y_den_inv


# ---------------------------------------------------------------------------
# Transitive chains


@dataclass(frozen=True)
class AutomorphismChain:
    """Symmetries of domain whose composition carries its base point z0 to target.

    factors[i] maps waypoints[i] to waypoints[i+1]; midpoints[i] is the
    fixed point of factors[i]. The factor count is even, so consecutive
    pairs fold into affine maps; `affine` is the full folded composition.
    step_norms[i] is ||x_i (waypoints[i+1] - waypoints[i])||, each below
    CHAIN_MARGIN. residual is ||apply(z0) - target||, the defect of the
    composite at z0.
    coefficients[i] is the coefficient matrix of factors[i]; both come from
    the same stacks of blocks, and the factors' blocks are views of those
    stacks, not of coefficients.
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
        """Apply the factors in order with ``lft_apply`` (numerically preferable to one big LFT).

        A single z takes one call per factor and raises SingularMatrixError
        where its denominator is singular at some factor. An (m, k, h) stack
        of probes goes to ``apply_chains``, one stacked call per factor;
        returns (images, singular): a probe that meets a singular denominator
        is marked in ``singular`` and gets a NaN image, and no later factor
        sees a NaN. Each probe gets exactly the image or the failure of a
        call on it alone.
        """
        dom = self.domain
        zs = as_cstack(z, rows=dom.dim_k, cols=dom.dim_h)
        if zs.ndim == 2:
            for f in self.factors:
                zs = lft_apply(f, zs)
            return zs
        images, singular = apply_chains((self,), zs[None])
        return images[0], singular[0]

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
    for lam in np.linalg.eigvals(xr):
        if lam.real <= -1.0:
            top, smin = singular_range(dom.eye_h - xr / lam.real)
            if smin <= dom.tol.eq_tol * (1.0 + top):
                return True
    return False


def _walk_polyline(dom, points, user_path, end_den_inv=None):
    """Walk each polyline segment in greedy steps that obey the bound.

    On the segment z = a + t (b - a) the step bound is linear in the next
    parameter, ||x_z (a + t' (b - a) - z)|| = (t' - t) ||x_z (b - a)||, so
    each step goes straight to t' = min(1, t + aim / ||x_z (b - a)||) with
    aim = CHAIN_MARGIN (1 - CHAIN_AIM_INSET). No subdivision whose steps all
    stay within aim takes fewer steps, because t + aim / ||x_z (b - a)|| never
    decreases along the segment.

    Every point within the bound is a member, since
    C w + D = (C z + D)(I + x_z (w - z)), so the only check per waypoint is
    the inversion that yields its kernel; end_den_inv, when given, is the
    inverse at the last point, already taken. Returns the waypoints (both
    endpoints included; every vertex of the polyline among them), the
    inverses (C w + D)^-1 at them, and the per-step norms ||x (next - prev)||.
    """
    hint = (
        "refine the supplied path away from the singular set"
        if user_path
        else "supply an explicit path avoiding the singular set"
    )
    aim = CHAIN_MARGIN * (1.0 - CHAIN_AIM_INSET)
    den_inv = dom.den0_inv if points[0] is dom.z0 else dom.denominator_inverse(points[0])
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
        for _ in range(CHAIN_STEP_CAP):
            pull = operator_norm(x @ r)
            t_next = 1.0 if pull * (1.0 - t) <= aim else t + aim / pull
            w = b if t_next == 1.0 else a + t_next * r
            if w is points[-1] and end_den_inv is not None:
                den_inv = end_den_inv
            else:
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
                f"within {CHAIN_STEP_CAP} steps on segment {seg}; the path runs too close to "
                "the singular set"
            )
    return waypoints, den_invs, step_norms


def walk_chain(dom, target, path=None):
    """The walk of ``transitive_chain``: its target and path validated, its waypoints chosen.

    Returns (target, waypoints, den_invs, step_norms) for ``build_chains``:
    the waypoints from the base point to target, the inverses (c w + d)^-1 at
    them and the step norms. An odd step count is made even by prepending
    the base point, whose symmetry the composite absorbs. Every error a
    chain's target or route can raise is raised here, before any factor is
    built.
    """
    source = dom.z0
    target, target_den_inv = _require_member(dom, target, "the chain target")
    if path is None:
        points = [source, target]
        user_path = False
    else:
        target_den_inv = None
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

    waypoints, den_invs, step_norms = _walk_polyline(dom, points, user_path, target_den_inv)
    if len(waypoints) % 2 == 0:
        # odd number of steps; duplicate the source so the factor count is even
        # (a supplied path starts within eq_tol of the source, not at it)
        waypoints = [source] + waypoints
        den_invs = [dom.den0_inv] + den_invs
        step_norms = [0.0] + step_norms
    return target, waypoints, den_invs, step_norms


def build_chains(dom, walks):
    """The chains of ``walk_chain``'s walks on dom, built together as stacks.

    The midpoints of every step of every walk come from one ``_midpoints``
    call; the factors' blocks, their coefficient matrices and the pair folds
    from one stacked call each. Each pair index of the folds, and each factor
    index of the residuals at z0, is one stacked call over the chains that
    reach it. Each chain gets the bits of its build alone, and a batch of one
    raises what ``transitive_chain`` raises. Each check runs once on the
    stacks of the batch and raises the error of the first item it flags. No
    walks build no chains.
    """
    if not walks:
        return []
    source = dom.z0
    counts = np.array([len(waypoints) - 1 for _, waypoints, _, _ in walks])
    starts = np.cumsum(counts) - counts
    # each step starts at a waypoint and reuses the walk's inversion there,
    # and the midpoint's membership check supplies its kernel
    z = np.array([p for _, waypoints, _, _ in walks for p in waypoints[:-1]])
    w = np.array([p for _, waypoints, _, _ in walks for p in waypoints[1:]])
    z_den_inv = np.array([inv for _, _, den_invs, _ in walks for inv in den_invs[:-1]])
    midpoints, mid_den_invs = _midpoints(dom, z, z_den_inv, w)
    kernels = mid_den_invs @ dom.c
    maps = LFTMap._of_blocks(*_symmetry_blocks(dom, midpoints, kernels), dom.tol)
    coefficients = maps.coefficient_matrix()
    # the pairs (U_{y[i+1]} after U_{y[i]}) of every chain as one stack; the
    # counts are even, so no pair spans two chains
    pairs = _pair_fold(dom, midpoints[1::2], midpoints[::2], mid_den_invs[::2], kernels[::2])

    # each chain composes its pairs in order, from the identity, pair i of
    # every chain with one in one stacked step; pair i is made of factors 2i
    # and 2i + 1, so the pairs take the factors' layout at the even factors
    n = len(walks)
    order, reach, rows = _layout(counts, starts)
    even = np.repeat(np.arange(len(reach)) % 2 == 0, reach)
    base, shift, outer, inner = (x[rows[even] // 2] for x in pairs)
    offset = np.zeros((n, dom.dim_k, dom.dim_h), dtype=complex)
    left = np.repeat(dom.eye_k[None], n, axis=0)
    right = np.repeat(dom.eye_h[None], n, axis=0)
    done = 0
    for live in reach[::2]:
        at = slice(done, done + live)
        offset[:live] = shift[at] + outer[at] @ (offset[:live] - base[at]) @ inner[at]
        left[:live] = outer[at] @ left[:live]
        right[:live] = right[:live] @ inner[at]
        done += live
    # rebased to be anchored at the source; the folded records keep the
    # identity's zero base, and source - 0 is source
    offset = offset + left @ source @ right
    by_walk = np.argsort(order)
    offset, left, right = offset[by_walk], left[by_walk], right[by_walk]

    chains = []
    for j, (target, waypoints, _, step_norms) in enumerate(walks):
        own = slice(starts[j], starts[j] + counts[j])
        chains.append(AutomorphismChain(
            domain=dom,
            target=target,
            waypoints=tuple(waypoints),
            midpoints=tuple(midpoints[own]),
            factors=tuple(
                LFTMap._of_blocks(*blocks, dom.tol)
                for blocks in zip(maps.a[own], maps.b[own], maps.c[own], maps.d[own])
            ),
            coefficients=coefficients[own],
            affine=AffineMap(base=source, offset=offset[j], left=left[j], right=right[j]),
            step_norms=tuple(step_norms),
            residual=None,
        ))

    # each chain carries z0 through its factors, factor i of every chain
    # that has one in one stacked step, in the layout of the pairs
    reached = np.repeat(source[None], n, axis=0)
    blocks = [x[rows] for x in (maps.a, maps.b, maps.c, maps.d)]
    done = 0
    for live in reach:
        at = slice(done, done + live)
        reached[:live] = lft_images(LFTMap._of_blocks(*(x[at] for x in blocks), dom.tol), reached[:live])
        done += live
    targets = np.array([target for target, _, _, _ in walks])
    residuals = operator_norm(reached[by_walk] - targets)
    return [replace(chain, residual=float(r)) for chain, r in zip(chains, residuals)]


def apply_chains(chains, zs):
    """Each chain applied to its own probes: chains[j] to the (p, k, h) stack zs[j].

    The chains share one domain, and zs is an (n, p, k, h) stack for n
    chains. One stacked ``lft_apply`` per factor index carries the probes of
    every chain that reaches it. Returns (images, singular) of shapes
    (n, p, k, h) and (n, p), each item the image or the failure of
    ``chains[j].apply`` on that probe alone.
    """
    zs = as_cstack(zs)
    if zs.ndim != 4 or zs.shape[0] != len(chains):
        raise ShapeError(f"expected an ({len(chains)}, p, k, h) stack of probes, got shape {zs.shape}")
    if not chains:
        return zs, np.zeros(zs.shape[:2], dtype=bool)
    counts = np.array([chain.factor_count for chain in chains])
    factors = [f for chain in chains for f in chain.factors]
    maps = LFTMap._of_blocks(
        *(np.array([getattr(f, block) for f in factors]) for block in "abcd"), factors[0].tol
    )
    return _carry(maps, *_layout(counts, np.cumsum(counts) - counts), zs)


def _layout(counts, starts):
    """Chains from the most factors down, laid out factor by factor.

    Chain j has the factors starts[j] : starts[j] + counts[j] of a stack.
    Returns (order, reach, rows): the chains in that order; reach[i], how
    many of them have a factor i, which are the first reach[i]; and the rows
    of the stack that hold factor i of those chains, for each i in turn.
    """
    order = np.argsort(-counts, kind="stable")
    ordered = counts[order]
    reach = np.searchsorted(-ordered, -np.arange(ordered[0]))
    index = np.repeat(np.arange(len(reach)), reach)
    rank = np.arange(len(index)) - np.repeat(np.cumsum(reach) - reach, reach)
    return order, reach.tolist(), starts[order][rank] + index


def _carry(maps, order, reach, rows, zs):
    """Probes zs[j] through the factors of chain j in turn, with _layout's (order, reach, rows).

    zs is an (n, p, k, h) stack; returns (images, singular) as apply_chains.
    Factor i of every chain that has one is one stacked lft_apply. A probe
    that meets a singular denominator gets a NaN image; from then on its
    place in the stack holds a zero matrix, so that the stack keeps its
    layout and no factor sees a NaN.
    """
    n, p = zs.shape[:2]
    a, b, c, d = (x[rows] for x in (maps.a, maps.b, maps.c, maps.d))
    carried = zs[order].reshape(n * p, *zs.shape[2:])
    singular = np.zeros(n * p, dtype=bool)
    done, dying = 0, False
    for live in reach:
        at = slice(done, done + live)
        done += live
        items = live * p
        blocks = a[at], b[at], c[at], d[at]
        if p != 1:
            # each probe takes its chain's factor
            blocks = [np.repeat(x, p, axis=0) for x in blocks]
        carried[:items], dead = lft_apply(LFTMap._of_blocks(*blocks, maps.tol), carried[:items])
        if dying or dead.any():
            singular[:items] |= dead
            carried[singular] = 0.0
            dying = True
    if dying:
        carried[singular] = np.nan
    images = np.empty((n, p, *zs.shape[2:]), dtype=complex)
    images[order] = carried.reshape(images.shape)
    failed = np.empty((n, p), dtype=bool)
    failed[order] = singular.reshape(n, p)
    return images, failed


def transitive_chain(dom, target, path=None):
    """Build a chain of symmetries mapping the domain base point to target.

    The default route is the straight segment; a path (sequence of domain
    members from base point to target) overrides it. Each segment is walked
    in greedy steps with ||(c z + d)^-1 c (z' - z)|| <= CHAIN_MARGIN, one
    symmetry factor per step via the midpoint construction, and at most
    CHAIN_STEP_CAP steps on one segment. A segment that crosses the singular
    set raises PathLeavesDomainError before any step is taken. An odd factor count is
    fixed by prepending the symmetry at the base point, which the composite
    result absorbs. It is ``build_chains`` of the one walk ``walk_chain`` takes.
    """
    return build_chains(dom, [walk_chain(dom, target, path)])[0]


# ---------------------------------------------------------------------------
# Affine maps from symmetry pairs and the base-point transport


def compose_symmetries_affine(dom, w, y):
    """The composition (symmetry at w) after (symmetry at y), folded to affine form.

    Equals U_w(U_y(z)) pointwise; the c block of the product coefficient
    matrix vanishes, leaving offset U_w(y) with linear factors
    I + (w - y) x and I + x (w - y), x the kernel at y. On (m, k, h) stacks
    of w and y, the stack of their m folds, each with the bits of its call
    alone; an item that is not a member raises the error one call raises.
    """
    w, _ = _require_member(dom, w, "the outer symmetry point w", stack=True)
    y, y_den_inv = _require_member(dom, y, "the inner symmetry point y", stack=True)
    return AffineMap(*_pair_fold(dom, w, y, y_den_inv, y_den_inv @ dom.c))


def _pair_fold(dom, w, y, y_den_inv, x):
    """(base, offset, left, right) of U_w after U_y, given (c y + d)^-1 and the kernel x at y.

    On stacks of pairs, stacks of each.
    """
    d = w - y
    left = dom.eye_k + d @ x
    right = dom.eye_h + x @ d
    return y, _symmetry_at(dom, w, y, y_den_inv), left, right


def affine_transport(dom, w0):
    """The affine automorphism carrying the base point to w0.

    phi(z) = w0 + (I + (w0 - z0) x0)^(1/2) (z - z0) (I + x0 (w0 - z0))^(1/2),
    defined when ||x0 (w0 - z0)|| < 1. On an (m, k, h) stack of targets, the
    stack of their m transports, each with the bits of its call alone; each
    check runs once on the stack and raises the error of the first item it
    flags.
    """
    w0, _ = _require_member(dom, w0, "the transport target w0", stack=True)
    a = w0 - dom.z0
    bound = first_at_least(operator_norm(dom.x0 @ a), 1.0)
    if bound is not None:
        raise StepBoundError(
            f"transport requires ||x0 (w0 - z0)|| < 1; got {bound:.6g}"
        )
    left = principal_sqrt(dom.eye_k + a @ dom.x0, dom.tol)
    right = principal_sqrt(dom.eye_h + dom.x0 @ a, dom.tol)
    return AffineMap(base=dom.z0, offset=w0, left=left, right=right)


def affine_transport_identity_residual(dom, phi, z):
    """Residual of I + x0 (phi(z) - z0) = r^(1/2) (I + x0 (z - z0)) r^(1/2).

    Here r^(1/2) is the right factor of the transport record; a small value
    certifies that phi preserves the domain. For a stack of transports or of
    points, one residual per item.
    """
    z = as_cstack(z, rows=dom.dim_k, cols=dom.dim_h)
    lhs = dom.eye_h + dom.x0 @ (phi(z) - dom.z0)
    rhs = phi.right @ (dom.eye_h + dom.x0 @ (z - dom.z0)) @ phi.right
    return operator_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# Point-swapping involutions


@dataclass(frozen=True)
class SwapInvolution:
    """The involutive automorphism of domain exchanging its base point z0 with w0.

    v(z) = z0 - gl (z - z0 - a) (I + x0 (z - z0))^-1 gr with a = w0 - z0,
    gl = (I + a x0)^(-1/2) and gr = (I + x0 a)^(1/2). Satisfies v(v(z)) = z,
    and for w0 = z0 it reduces to the symmetry at z0. A stack of m
    involutions holds (m, ., .) stacks of w0, gl and gr.
    """

    domain: Domain
    w0: np.ndarray
    gl: np.ndarray
    gr: np.ndarray

    def __call__(self, z):
        """v(z); one z of one involution raises SingularMatrixError where c z + d is singular.

        Where the involution or z is a stack, item i takes involution i and
        z[i], or the one given, and it returns (images, singular) as
        ``lft_apply`` does, each item the image and verdict of a call on it
        alone.
        """
        dom = self.domain
        z = as_cstack(z, rows=dom.dim_k, cols=dom.dim_h)
        single = z.ndim == 2 == self.w0.ndim
        if single:
            den_inv = dom.denominator_inverse(z)
        else:
            z = np.broadcast_to(z, np.broadcast_shapes(z.shape, self.w0.shape))
            den_inv, singular = dom.try_denominator_inverse(z)
        den_inv = den_inv @ dom.denominator(dom.z0)  # (I + x0 (z - z0))^-1
        a = self.w0 - dom.z0
        image = dom.z0 - self.gl @ (z - dom.z0 - a) @ den_inv @ self.gr
        return image if single else (image, singular)

    def as_lft(self):
        """The same map as explicit LFT blocks (independent evaluation route); of each item of a stack."""
        z0, x0 = self.domain.z0, self.domain.x0
        gr_inv = invert(self.gr, self.domain.tol, "I + x0 (w0 - z0) has no invertible square root")
        c = gr_inv @ x0
        d = gr_inv @ (self.domain.eye_h - x0 @ z0)
        a_blk = z0 @ gr_inv @ x0 - self.gl
        b_blk = z0 @ d + self.gl @ self.w0
        return LFTMap._of_blocks(a_blk, b_blk, c, d, self.domain.tol)


def swap_involution(dom, w0):
    """Build the involution exchanging the base point with w0.

    Its factors are those of the affine transport to w0: gl inverts the
    transport's left factor and gr is its right factor, so the transport's
    hypothesis ||x0 (w0 - z0)|| < 1 applies. On an (m, k, h) stack of w0,
    the stack of m involutions, by the stack rule of ``affine_transport``.
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
    """Smallest eigenvalue of j - z* j z; positive inside the j-contractive set. One per stack item."""
    z = as_cstack(z)
    j = as_cmatrix(j, rows=z.shape[-2], cols=z.shape[-2])
    return hermitian_margin(j - dagger(z) @ j @ z)


def ball_margin(z):
    """1 - ||z||; positive inside the open unit ball. One per item of a stack."""
    return 1.0 - operator_norm(as_cstack(z))


def potapov_ginzburg_map(e, tol=DEFAULT_TOL):
    """The involutive LFT z -> ((e - I) z + e)(e z + I - e)^-1 of a projection e.

    Exchanges the j-contractive set {z : z* j z < j}, j = I - 2e, with the
    open unit norm ball, on the set where the denominator stays invertible.
    """
    e = _square_projection(e)
    require_idempotent(e, tol)
    eye = np.eye(e.shape[0], dtype=complex)
    return LFTMap._of_blocks(e - eye, e, e, eye - e, tol)


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
        """f(lam) at one scalar lam; a stack of exponents goes to ``evaluate``."""
        lam = scalar_exponent(lam, "LiouvilleCurve.evaluate")
        z0 = self.domain.z0
        return z0 + (self.z - z0) @ binomial_series_sum(lam, self.table, ("shifted",))[0][0]

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
        den0_inv=dom.den0_inv,
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
