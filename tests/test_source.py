"""Checks on the package source itself."""

import ast
import dataclasses
import inspect
from pathlib import Path

import lftdom
from lftdom import automorphisms, circular, domains, sampling

PACKAGE = Path(lftdom.__file__).parent


def imported_names(tree):
    """Map each name an import statement binds to the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import scipy.linalg` binds `scipy`
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_every_imported_name_is_used():
    # __init__.py imports names only to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line} {name}")
    assert unused == []


def test_domain_bound_functions_take_no_tolerance():
    # a Domain keeps the Tolerance it was built with; a per-call knob would
    # let two calls on one domain disagree about the same point
    candidates = [
        (f"Domain.{name}", fn)
        for name, fn in inspect.getmembers(domains.Domain, inspect.isfunction)
        if not name.startswith("_")
    ]
    for module in (domains, automorphisms, sampling):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            params = inspect.signature(fn).parameters
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                if "dom" in params or "dom1" in params:
                    candidates.append((f"{module.__name__}.{name}", fn))
    assert len(candidates) >= 20
    # records hold their domain and judge with its tolerance
    candidates += [
        ("AutomorphismChain.apply", automorphisms.AutomorphismChain.apply),
        ("SwapInvolution.__call__", automorphisms.SwapInvolution.__call__),
    ]
    # a SiegelSpec or HyperbolicSpec keeps the Tolerance it was built with
    spec_bound = [
        circular.siegel_member,
        circular.siegel_linear_auto,
        circular.cayley_map,
        circular.product_member,
        circular.product_split,
        circular.product_transitive,
        circular.hyperbolic_member,
        circular.hyperbolic_transitive,
        sampling.random_siegel_member,
        sampling.random_product_member,
    ]
    candidates += [(f"{fn.__module__}.{fn.__name__}", fn) for fn in spec_bound]
    offenders = [
        name for name, fn in candidates if "tol" in inspect.signature(fn).parameters
    ]
    assert offenders == []
    assert "tol" in inspect.signature(circular.SiegelSpec).parameters
    assert "tol" in inspect.signature(circular.HyperbolicSpec).parameters


def test_records_hold_their_domain_instead_of_copies():
    # chains, swap involutions and curves read z0, x0, c, d and tol off the
    # domain they were built on, so they cannot drift from it
    copied = {"source", "z0", "x0", "c", "d", "tol"}
    for record in (
        automorphisms.AutomorphismChain,
        automorphisms.SwapInvolution,
        automorphisms.LiouvilleCurve,
    ):
        fields = {f.name for f in dataclasses.fields(record)}
        assert "domain" in fields, record.__name__
        assert fields & copied == set(), record.__name__
