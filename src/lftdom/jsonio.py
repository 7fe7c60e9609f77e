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
``dumps(chain_to_obj(chain))`` from orjson, loaded at the first chain write.
orjson's indent-2, key-sorted layout is the standard library's, and its
floats carry the same shortest round-trip digits as ``float.__repr__``; only
the spelling of a few differs (``1e16`` for ``1e+16``, ``1e-8`` for
``1e-08``, ``0.00001`` for ``1e-05``). Every number whose spelling could
differ is found by a pattern that opens with a literal, the exponent mark or
``.0000``, and is written again with ``repr``; a fixed notation of 1e16 or
more, which no literal finds, is looked for only in a chain holding a value
that large. orjson writes NaN as ``null``, so ``chain_to_obj`` refuses a
non-finite residual as ``_matrix_objs`` refuses a non-finite entry.
"""

import itertools
import json
import math
import re

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
    residual = float(chain.residual)
    if not math.isfinite(residual):
        raise ValueError("the residual must be finite")
    return {
        "waypoints": _matrix_objs(np.stack(chain.waypoints)),
        "factors": [{"M": m} for m in _matrix_objs(chain.coefficients)],
        "residual": residual,
    }


def chain_dumps(chain):
    """The text of dumps(chain_to_obj(chain)), byte for byte: orjson's encoding of it, respelled."""
    # imported here, not at module level: only a chain write needs it
    import orjson

    text = orjson.dumps(chain_to_obj(chain), option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS).decode()
    # a modulus bounds both parts of its entry
    values = (chain.coefficients, *chain.waypoints, chain.residual)
    return _respell(text, large=max(np.abs(v).max() for v in values) >= 1e16)


# A number token holding a match is written again with repr. Each pattern
# opens with a literal, which re finds fast: an exponent without its sign,
# with one digit, or of a value repr writes in fixed notation; a fixed
# notation below 1e-4. The tail runs to the end of the token.
_TAIL = r"[-+.\de]*"
_ODD = [
    re.compile(r"e(?:\d|[-+]\d(?!\d)|-0[0-4]|\+(?:0|1[0-5](?!\d)))" + _TAIL),
    re.compile(r"\.0000" + _TAIL),
]
# a run of 17 digits, as a fixed notation of 1e16 or more has: no literal
# opens it, so it is looked for only in a chain holding a value that large
_LARGE = re.compile(r"\d{17}" + _TAIL)


def _respell(text, large):
    """text, an indent-2 encoding by a shortest round-trip encoder, with every number spelled as float.__repr__ does.

    The layout's keys hold no "E", so an upper-case exponent mark is lowered
    first. With large, fixed-notation numbers of 1e16 or more are respelled too.
    """
    text = text.replace("E", "e")
    for pattern in _ODD + ([_LARGE] if large else []):
        pieces, done = [], 0
        for match in pattern.finditer(text):
            # every number of the layout follows a space
            start = text.rfind(" ", 0, match.start()) + 1
            pieces += (text[done:start], repr(float(text[start:match.end()])))
            done = match.end()
        if pieces:
            text = "".join(pieces + [text[done:]])
    return text


def path_from_obj(obj):
    """A path file: {"waypoints": [matrix, ...]}, every side at most MAX_SIDE."""
    if not isinstance(obj, dict) or "waypoints" not in obj:
        raise ValueError('a path object needs a "waypoints" list')
    points = obj["waypoints"]
    if not isinstance(points, list) or len(points) < 2:
        raise ValueError("a path needs at least two waypoints")
    return [matrix_from_obj(p, MAX_SIDE) for p in points]
