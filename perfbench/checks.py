"""Independent checks of lftdom's outputs.

Each check recomputes a property with its own numpy/scipy calls (never with
lftdom) and returns a list of error strings, empty when the output passes.
"""

import numpy as np
import scipy.linalg

from inputs import MARGIN, matrix_from

EQ_TOL = 1e-9          # lftdom's default equality tolerance
INV_TOL = 1e-10        # lftdom's default invertibility tolerance
BAND = 1e2             # verdicts within this factor of a threshold are not judged
INVERTIBLE = 1e-10     # smallest over largest singular value of an invertible C W + D


def opnorm(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def lft(m, w):
    """(A W + B)(C W + D)^-1 for the block matrix M = [[A, B], [C, D]]."""
    k = w.shape[0]
    a, b, c, d = m[:k, :k], m[:k, k:], m[k:, :k], m[k:, k:]
    return np.linalg.solve((c @ w + d).T, (a @ w + b).T).T


def symmetry(c, d, y, w):
    """The symmetry at y applied to w: y - (w - y)(C w + D)^-1 (C y + d)."""
    return y - (w - y) @ np.linalg.solve(c @ w + d, c @ y + d)


def close(got, want, rel):
    return opnorm(got - want) <= rel * (1.0 + opnorm(want))


def check_verify(rc, stdout, report, suites):
    errors = []
    if rc != 0:
        errors.append(f"verify exit code {rc}")
    if not stdout.rstrip().endswith("overall: PASS"):
        errors.append("verify did not print 'overall: PASS'")
    if report.get("passed") is not True:
        errors.append("report is not passed")
    rows = report.get("suites", [])
    names = [row.get("name") for row in rows]
    if sorted(names) != sorted(suites):
        errors.append(f"report rows {names} differ from the 18 suites")
    for row in rows:
        if row.get("passed") is not True:
            errors.append(f"suite {row.get('name')} failed")
        if not row.get("trials", 0) > 0:
            errors.append(f"suite {row.get('name')} ran no trials")
        if not np.isfinite(row.get("max_residual", np.inf)):
            errors.append(f"suite {row.get('name')} has a non-finite residual")
    return errors


def without_elapsed(report):
    rows = [{k: v for k, v in row.items() if k != "elapsed"} for row in report["suites"]]
    return {**report, "suites": rows}


def check_chain(spec, target, path, rc, summary, chain):
    """A transit chain: even, involutive factors stepping along its waypoints."""
    if rc != 0:
        return [f"transit exit code {rc}"]
    factors = [matrix_from(f["M"]) for f in chain["factors"]]
    points = [matrix_from(w) for w in chain["waypoints"]]
    errors = []
    if len(factors) % 2 or not factors:
        errors.append(f"factor count {len(factors)} is not even and positive")
    if len(points) != len(factors) + 1:
        errors.append("waypoint count is not factor count + 1")
        return errors
    if not summary.startswith(f"chain with {len(factors)} symmetry factors"):
        errors.append("summary line disagrees with the chain")
    if not close(points[0], spec.z0, 1e-12):
        errors.append("chain does not start at Z0")
    eye = np.eye(factors[0].shape[0]) if factors else None
    for i, m in enumerate(factors):
        if opnorm(m @ m - eye) > 1e-8 * (1.0 + opnorm(m) ** 2):
            errors.append(f"factor {i} is not an involution")
            break
    for i, (m, w, w_next) in enumerate(zip(factors, points, points[1:])):
        if not close(lft(m, w), w_next, 1e-8):
            errors.append(f"factor {i} does not map waypoint {i} to waypoint {i + 1}")
            break
    den = spec.c @ np.stack(points) + spec.d
    s = np.linalg.svd(den, compute_uv=False)
    if (s[:, -1] <= INVERTIBLE * s[:, 0]).any():
        errors.append("a waypoint has C W + D singular")
    else:
        steps = [opnorm(np.linalg.solve(den[i], spec.c) @ (points[i + 1] - points[i]))
                 for i in range(len(factors))]
        if max(steps) > MARGIN + 1e-12:
            errors.append(f"a step norm {max(steps):.6g} exceeds {MARGIN}")
    reached = spec.z0
    for m in factors:
        reached = lft(m, reached)
    if not close(reached, target, 1e-8):
        errors.append("the composite does not carry Z0 to the target")
    for j, vertex in enumerate(path or []):
        if not any(close(p, vertex, 1e-12) for p in points):
            errors.append(f"path vertex {j} is not a waypoint")
            break
    return errors


def classify(spec, z):
    """lftdom's verdict by this module's own projector and SVD, or None in the band."""
    norm_f = np.linalg.norm(z)
    residual = spec.space_residual(z) * (1.0 + norm_f)
    limit = EQ_TOL * (1.0 + norm_f)
    if limit / BAND <= residual <= limit * BAND:
        return None
    if residual > limit:
        return "not-in-space"
    smin = float(np.linalg.svd(spec.c @ z + spec.d, compute_uv=False)[-1])
    if INV_TOL / BAND <= smin <= INV_TOL * BAND:
        return None
    return "singular" if smin <= INV_TOL else "member"


def check_membership(spec, z, verdict):
    want = classify(spec, z)
    if want is not None and verdict != want:
        return [f"membership verdict {verdict} on {spec.kind}, expected {want}"]
    return []


def check_symmetry(spec, y, z, direct, via_map, m):
    errors = []
    if not close(direct, via_map, 1e-9):
        errors.append(f"symmetry routes disagree on {spec.kind}")
    if not close(lft(m, y), y, 1e-8):
        errors.append(f"U_Y(Y) != Y on {spec.kind}")
    if not close(lft(m, via_map), z, 1e-8):
        errors.append(f"U_Y(U_Y(Z)) != Z by the map on {spec.kind}")
    if not close(symmetry(spec.c, spec.d, y, direct), z, 1e-8):
        errors.append(f"U_Y(U_Y(Z)) != Z by the direct route on {spec.kind}")
    return errors


def check_curve(spec, z, lam, value):
    den0 = spec.c @ spec.z0 + spec.d
    w = np.linalg.solve(den0, spec.c @ (z - spec.z0))
    want = scipy.linalg.expm(lam * scipy.linalg.logm(np.eye(w.shape[0]) + w))
    got = np.linalg.solve(den0, spec.c @ value + spec.d)
    if not close(got, want, 1e-8):
        return [f"curve value at lambda={lam:.3g} breaks the series identity on {spec.kind}"]
    return []


def _hermitian_power(h, p):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * vals ** p) @ vecs.conj().T


def check_mobius(b, z, value):
    errors = []
    if not opnorm(value) < 1.0:
        errors.append("mobius image is outside the open unit ball")
    k, h = b.shape
    left = _hermitian_power(np.eye(k) - b @ b.conj().T, -0.5)
    right = _hermitian_power(np.eye(h) - b.conj().T @ b, 0.5)
    want = left @ (z + b) @ np.linalg.solve(np.eye(h) + b.conj().T @ z, right)
    if not close(value, want, 1e-9):
        errors.append("mobius image differs from the closed form")
    return errors
