"""Seeded inputs built with the benchmark's own numpy, independent of
lftdom.sampling: domain descriptions, chain targets whose straight route is
clear of the singular set, and points for single-call evaluation.
"""

import json

import numpy as np

MARGIN = 0.9           # step bound lftdom's transitive chains use by default
CLEARANCE = 1e-6       # smallest singular value of C W + D along an accepted route
BORDER = 1e-3          # relative distance a step norm keeps from MARGIN


def rand_matrix(rng, rows, cols, scale=1.0):
    return scale * (rng.uniform(-1.0, 1.0, (rows, cols))
                    + 1j * rng.uniform(-1.0, 1.0, (rows, cols)))


def unit(i, shape):
    e = np.zeros(shape, dtype=complex)
    e[i] = 1.0
    return e


def full_basis(k, h):
    return [unit((r, c), (k, h)) for r in range(k) for c in range(h)]


def symmetric_basis(n):
    return [unit((r, c), (n, n)) + unit((c, r), (n, n)) * (r != c)
            for r in range(n) for c in range(r, n)]


def upper_basis(n):
    return [unit((r, c), (n, n)) for r in range(n) for c in range(r, n)]


def clifford_basis(n):
    """n pairwise anticommuting Hermitian involutions of size 2^ceil(n/2)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    m = (n + 1) // 2
    gens = []
    for i in range(1, n + 1):
        k = (i + 1) // 2
        factors = [sz] * (k - 1) + [sx if i % 2 else sy] + [np.eye(2)] * (m - k)
        g = factors[0]
        for f in factors[1:]:
            g = np.kron(g, f)
        gens.append(g.astype(complex))
    return gens


class Spec:
    """A domain description: space basis (None for the full space), C, D, Z0."""

    def __init__(self, kind, basis, c, d, z0):
        self.kind = kind
        self.basis = basis
        self.c = np.asarray(c, dtype=complex)
        self.d = np.asarray(d, dtype=complex)
        self.z0 = np.asarray(z0, dtype=complex)
        span = basis if basis is not None else full_basis(*self.z0.shape)
        self.span = np.stack(span)
        q, _ = np.linalg.qr(self.span.reshape(len(span), -1).T)
        self.onb = q

    @property
    def shape(self):
        return self.z0.shape

    def member_like(self, rng, scale=1.0):
        coords = rand_matrix(rng, 1, len(self.span), scale)[0]
        return np.tensordot(coords, self.span, axes=1)

    def space_residual(self, z):
        """Relative distance of z from the space, by this module's own projector."""
        v = z.ravel()
        r = v - self.onb @ (self.onb.conj().T @ v)
        return float(np.linalg.norm(r) / (1.0 + np.linalg.norm(v)))

    def scaled(self, s):
        return Spec(self.kind + "-rescaled", self.basis, s * self.c, s * self.d, self.z0)

    def to_obj(self):
        space = "full" if self.basis is None else {"basis": [matrix_obj(b) for b in self.basis]}
        return {"space": space, "C": matrix_obj(self.c), "D": matrix_obj(self.d),
                "Z0": matrix_obj(self.z0)}


def reference_specs():
    """The six reference domains at 2x2, as lftdom's verify builds them."""
    eye = np.eye(2, dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    e = np.array([[1.0, 0.5], [0.0, 0.0]], dtype=complex)
    c_vec = np.array([[1.0], [1.0j]]) / np.sqrt(2.0)
    x = np.array([[1.0], [0.0]], dtype=complex)
    y = np.array([[1.0], [1.0j]]) / np.sqrt(2.0)
    gens = clifford_basis(4)
    return [
        Spec("whole-space", None, zero, eye, zero),
        Spec("invertibles", None, eye, zero, eye),
        Spec("projection", None, e, eye - e, e),
        Spec("hyperplane-complement", None, c_vec.conj().T, [[0.7]], np.zeros((2, 1))),
        Spec("rank-one-pairing", None, x @ y.conj().T, 0.6 * eye, 0.4 * (y @ x.conj().T)),
        Spec("quadric", gens, np.eye(4), np.zeros((4, 4)), gens[0]),
    ]


def random_spec(rng, kind, n):
    """Random (C, Z0) in the space and D = I - C Z0, so that X0 = C."""
    basis = {"full": None, "symmetric": symmetric_basis(n), "upper": upper_basis(n)}[kind]
    probe = Spec(kind, basis, np.eye(n), np.zeros((n, n)), np.zeros((n, n)))
    c = probe.member_like(rng)
    z0 = probe.member_like(rng)
    return Spec(f"{kind}-{n}", basis, c, np.eye(n) - c @ z0, z0)


def smin_ratio(m):
    """Smallest over largest singular value of each matrix in a stack."""
    s = np.linalg.svd(m, compute_uv=False)
    return s[..., -1] / s[..., 0]


def straight_steps(spec, a, b, cap):
    """Doubling count lftdom's chain needs on the segment [a, b], or None.

    The chain subdivides the segment into n = 1, 2, 4, ... equal steps until
    every step has ||(C W + D)^-1 C (W' - W)|| <= MARGIN. Returns that n
    when it is at most cap (a power of two), every subdivision point is
    clear of the singular set and no step norm lies within BORDER of MARGIN.
    Each level evaluates only the points the previous levels have not.
    """
    r = b - a
    pull = np.full(cap + 1, np.nan)     # ||(C W + D)^-1 C r|| at W = a + (i / cap) r

    def evaluate(idx):
        pts = a + (idx / cap)[:, None, None] * r
        den = spec.c @ pts + spec.d
        if smin_ratio(den).min() < CLEARANCE:
            return False
        x = np.linalg.solve(den, np.broadcast_to(spec.c, (len(idx),) + spec.c.shape))
        pull[idx] = np.linalg.svd(x @ r, compute_uv=False)[:, 0]
        return True

    if not evaluate(np.array([0, cap])):
        return None
    n = 1
    while n <= cap:
        stride = cap // n
        if n > 1 and not evaluate(np.arange(stride, cap, 2 * stride)):
            return None
        worst = pull[0:cap:stride].max() / n
        if abs(worst / MARGIN - 1.0) < BORDER:
            return None
        if worst <= MARGIN:
            return n
        n *= 2
    return None


def target_in_bucket(rng, spec, steps, cap_draws=4000):
    """A random member whose straight chain needs exactly `steps` steps."""
    for _ in range(cap_draws):
        z = spec.member_like(rng)
        if straight_steps(spec, spec.z0, z, steps) == steps:
            return z
    raise RuntimeError(f"no target with {steps} steps found on {spec.kind}")


def polyline(rng, spec, legs, leg_cap):
    """Waypoints Z0, V1, ..., target: random members, each leg clear."""
    for _ in range(4000):
        points = [spec.z0] + [spec.member_like(rng) for _ in range(legs)]
        if all(straight_steps(spec, p, q, leg_cap) for p, q in zip(points, points[1:])):
            return points
    raise RuntimeError(f"no clear polyline found on {spec.kind}")


def matrix_obj(m):
    m = np.asarray(m, dtype=complex)
    return {"rows": m.shape[0], "cols": m.shape[1],
            "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from(obj):
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
