"""JSON encoding of matrices, domain descriptions, and chain output.

Matrices travel as {"rows", "cols", "re", "im"} with row-major nested arrays
of plain decimal numbers. Parsing rejects NaN and Infinity tokens, numbers
too large for a float, nesting too deep to parse and any shape mismatch, all
with ValueError; writing refuses non-finite entries. Round-trips reproduce
every entry exactly, the sign of a zero included: floats are emitted in
shortest-round-trip form and read back into the real and imaginary parts
separately.

``dumps`` is the standard library's
``json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)``, one number
per line; it writes the ``verify --out`` report.

``chain_dumps``, the ``transit`` writer, gives the bytes of
``dumps(chain_to_obj(chain))`` without building the object. With an indent,
the standard library encodes in pure Python, but its C encoder runs for any
item separator, so it is given the laid-out one, a comma, a newline and the
indent of a number; the real and the imaginary parts of each whole stack
(the factors' coefficient matrices, the waypoints) take one call each. One
split at the matrix boundaries and one replace at the row boundaries give
each grid its final text, which fills a fixed template per matrix object.
"""

import functools
import itertools
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
    """json.loads with NaN/Infinity tokens and nesting too deep to parse rejected by ValueError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        raise ValueError("JSON nesting is too deep to parse") from None


# compact, with the checks and the key order of dumps
_compact = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def dumps(obj):
    """json.dumps(obj, indent=2, sort_keys=True, allow_nan=False): the report layout."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


def matrix_to_obj(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("only two-dimensional arrays can be serialized")
    return _matrix_objs(m[None])[0]


def _require_finite(ms):
    if not np.all(np.isfinite(ms)):
        raise ValueError("matrix entries must be finite")


def _matrix_objs(ms):
    """The matrix object of each item of an (m, rows, cols) stack."""
    _require_finite(ms)
    rows, cols = int(ms.shape[1]), int(ms.shape[2])
    return [
        {"rows": rows, "cols": cols, "re": re, "im": im}
        for re, im in zip(ms.real.tolist(), ms.imag.tolist())
    ]


def _numeric_grid(value, rows, cols, name):
    if not isinstance(value, list) or len(value) != rows:
        raise ValueError(f"field {name!r} must be a list of {rows} rows")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ValueError(f"row {i} of field {name!r} must have {cols} entries")
    # JSON numbers parse to int and float; any other type (bool, str, None,
    # a list, a subclass) is looked at entry by entry
    if not set(map(type, itertools.chain.from_iterable(value))) <= {int, float}:
        for i, row in enumerate(value):
            for j, entry in enumerate(row):
                if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                    raise ValueError(f"entry ({i},{j}) of field {name!r} is not a number")
    try:
        grid = np.array(value, dtype=float)
    except OverflowError:  # an integer beyond the float range
        grid = None
    if grid is None or not np.all(np.isfinite(grid)):
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
    # assigned, not formed as re + 1j * im, which turns a -0.0 into +0.0
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


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
        "waypoints": _matrix_objs(np.stack(chain.waypoints)),
        "factors": [{"M": m} for m in _matrix_objs(chain.coefficients)],
        "residual": float(chain.residual),
    }


def chain_dumps(chain):
    """The text of dumps(chain_to_obj(chain)), byte for byte, built from the chain's stacks."""
    return _chain_text(chain.coefficients, np.stack(chain.waypoints), chain.residual)


def _chain_text(coefficients, waypoints, residual):
    """A chain file from its (m, k+h, k+h) coefficient stack, m >= 1, (m+1, k, h) waypoints and residual."""
    factors = ['{\n      "M": ' + m + "\n    }" for m in _matrix_texts(coefficients, 8)]
    return (
        '{\n  "factors": ' + _list_text(factors)
        + ',\n  "residual": ' + _compact(float(residual))
        + ',\n  "waypoints": ' + _list_text(_matrix_texts(waypoints, 6)) + "\n}"
    )


def _list_text(items):
    """A non-empty list, at indent 2, of the texts of its items."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]"


def _matrix_texts(ms, depth):
    """The matrix object of each item of an (m, rows, cols) stack, laid out with its keys at indent depth."""
    _require_finite(ms)
    key = "\n" + " " * depth
    head = "{" + key + f'"cols": {ms.shape[2]},' + key + '"im": '
    middle = "," + key + '"re": '
    tail = "," + key + f'"rows": {ms.shape[1]}' + key[:-2] + "}"
    return [
        head + im + middle + re + tail
        for im, re in zip(_grid_texts(ms.imag, depth), _grid_texts(ms.real, depth))
    ]


@functools.cache
def _stack_encoder(cell):
    """The C encoder whose item separator is a comma, then ``cell`` (a newline and an indent)."""
    return json.JSONEncoder(allow_nan=False, check_circular=False, separators=("," + cell, ": ")).encode


def _grid_texts(grids, depth):
    """The laid-out text of each grid of a real (m, rows, cols) stack, m >= 1, closed at indent depth.

    Every separator of the one encoded stack is already a cell's "," and
    line break; only the row and matrix boundaries are laid out again.
    """
    outer = "\n" + " " * depth
    row = outer + "  "
    cell = row + "  "
    sep = "," + cell
    # "[[[a" sep "b]" sep "[c" ... "]]" sep "[[" ... "]]]"
    text = _stack_encoder(cell)(grids.tolist())
    head = "[" + row + "[" + cell
    tail = row + "]" + outer + "]"
    row_break = row + "]," + row + "[" + cell
    return [
        head + body.replace("]" + sep + "[", row_break) + tail
        for body in text[3:-3].split("]]" + sep + "[[")
    ]


def path_from_obj(obj):
    """A path file: {"waypoints": [matrix, ...]}, every side at most MAX_SIDE."""
    if not isinstance(obj, dict) or "waypoints" not in obj:
        raise ValueError('a path object needs a "waypoints" list')
    points = obj["waypoints"]
    if not isinstance(points, list) or len(points) < 2:
        raise ValueError("a path needs at least two waypoints")
    return [matrix_from_obj(p, MAX_SIDE) for p in points]
