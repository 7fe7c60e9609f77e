"""JSON encoding of matrices, domain descriptions, and chain output.

Matrices travel as {"rows", "cols", "re", "im"} with row-major nested arrays
of plain decimal numbers. Parsing rejects NaN and Infinity tokens and any
shape mismatch; writing refuses non-finite entries. Round-trips reproduce
every entry exactly because floats are emitted in shortest-round-trip form.
"""

import json

import numpy as np

from .linalg import DEFAULT_TOL
from .spaces import OperatorSpace, full_space
from .domains import Domain

# largest side of a domain, target or path matrix read from JSON; bounds the
# work a crafted request can cause before any chain is built
MAX_SIDE = 16


def _reject_constant(token):
    raise ValueError(f"non-finite numeric token {token!r} is not allowed")


def loads(text):
    """json.loads with NaN/Infinity tokens rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def matrix_to_obj(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("only two-dimensional arrays can be serialized")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def _numeric_grid(value, rows, cols, name):
    if not isinstance(value, list) or len(value) != rows:
        raise ValueError(f"field {name!r} must be a list of {rows} rows")
    grid = np.empty((rows, cols), dtype=float)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"row {i} of field {name!r} must have {cols} entries")
        for j, entry in enumerate(row):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise ValueError(f"entry ({i},{j}) of field {name!r} is not a number")
            grid[i, j] = float(entry)
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"field {name!r} contains non-finite values")
    return grid


def matrix_from_obj(obj, max_side=None):
    """A matrix from its JSON object; with max_side, larger sides are rejected."""
    if not isinstance(obj, dict):
        raise ValueError("a matrix object must be a JSON mapping")
    missing = {"rows", "cols", "re", "im"} - set(obj)
    if missing:
        raise ValueError(f"matrix object lacks fields: {sorted(missing)}")
    rows, cols = obj["rows"], obj["cols"]
    for name, value in (("rows", rows), ("cols", cols)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"field {name!r} must be a positive integer")
        if max_side is not None and value > max_side:
            raise ValueError(f"field {name!r} is {value}; at most {max_side} is accepted")
    re = _numeric_grid(obj["re"], rows, cols, "re")
    im = _numeric_grid(obj["im"], rows, cols, "im")
    return re + 1j * im


def matrix_dumps(m):
    return dumps(matrix_to_obj(m))


def matrix_loads(text):
    return matrix_from_obj(loads(text))


def domain_from_obj(obj, tol=DEFAULT_TOL):
    """Build a Domain from {"space", "C", "D", "Z0"}, every side at most MAX_SIDE."""
    if not isinstance(obj, dict):
        raise ValueError("a domain object must be a JSON mapping")
    missing = {"space", "C", "D", "Z0"} - set(obj)
    if missing:
        raise ValueError(f"domain object lacks fields: {sorted(missing)}")
    z0 = matrix_from_obj(obj["Z0"], MAX_SIDE)
    c = matrix_from_obj(obj["C"], MAX_SIDE)
    d = matrix_from_obj(obj["D"], MAX_SIDE)
    space_obj = obj["space"]
    if space_obj == "full":
        space = full_space(z0.shape[0], z0.shape[1])
    elif isinstance(space_obj, dict) and "basis" in space_obj:
        basis = [matrix_from_obj(b, MAX_SIDE) for b in space_obj["basis"]]
        if not basis:
            raise ValueError("space basis must not be empty")
        space = OperatorSpace(basis[0].shape[0], basis[0].shape[1], basis)
    else:
        raise ValueError('field "space" must be "full" or {"basis": [...]}')
    return Domain(space, c, d, z0, tol)


def domain_to_obj(dom):
    if dom.space.is_full:
        space_obj = "full"
    else:
        space_obj = {"basis": [matrix_to_obj(b) for b in dom.space.basis]}
    return {
        "space": space_obj,
        "C": matrix_to_obj(dom.c),
        "D": matrix_to_obj(dom.d),
        "Z0": matrix_to_obj(dom.z0),
    }


def chain_to_obj(chain):
    """Chain output: waypoints, factor coefficient matrices, final residual."""
    return {
        "waypoints": [matrix_to_obj(w) for w in chain.waypoints],
        "factors": [{"M": matrix_to_obj(f.coefficient_matrix())} for f in chain.factors],
        "residual": float(chain.residual),
    }


def path_from_obj(obj):
    """A path file: {"waypoints": [matrix, ...]}, every side at most MAX_SIDE."""
    if not isinstance(obj, dict) or "waypoints" not in obj:
        raise ValueError('a path object needs a "waypoints" list')
    points = obj["waypoints"]
    if not isinstance(points, list) or len(points) < 2:
        raise ValueError("a path needs at least two waypoints")
    return [matrix_from_obj(p, MAX_SIDE) for p in points]
