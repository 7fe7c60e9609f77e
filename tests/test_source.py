"""Checks on the package source itself."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import lftdom
from lftdom import automorphisms, circular, domains, linalg, sampling

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


def owned_nodes(tree):
    """Yield (name of the innermost enclosing function or None, node) for every node."""

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            yield owner, child
            inner = child.name if isinstance(child, ast.FunctionDef) else owner
            yield from walk(child, inner)

    yield from walk(tree, None)


def dotted(node):
    """The dotted name of an expression such as np.linalg.inv, with np spelled numpy."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append("numpy" if node.id == "np" else node.id)
    return ".".join(reversed(parts))


def package_nodes():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, node in owned_nodes(tree):
            yield path.name, owner, node


def gufunc_imports(name, node):
    """Sites where a module other than linalg.py imports numpy's LAPACK gufuncs, _umath_linalg."""
    if name == "linalg.py" or not isinstance(node, (ast.Import, ast.ImportFrom)):
        return []
    prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
    imported = [prefix + a.name for a in node.names]
    return [(name, f"import {a}", node.lineno) for a in imported if "_umath_linalg" in a]


def test_only_try_invert_inverts():
    # one kernel decides invertibility, so every inverse or solve is try_invert's,
    # through numpy's wrapper or straight on LAPACK's gufunc; only linalg.py
    # imports the gufuncs
    inverting = {f"{lib}.linalg.{fn}" for lib in ("numpy", "scipy") for fn in ("inv", "solve")}
    inverting |= {
        f"{prefix}_umath_linalg.{fn}"
        for prefix in ("", "numpy.linalg.")
        for fn in ("inv", "solve", "solve1")
    }
    sites = []
    for name, owner, node in package_nodes():
        if isinstance(node, ast.Call) and dotted(node.func) in inverting:
            sites.append((name, owner, node.lineno))
        if isinstance(node, ast.ImportFrom) and node.module in ("numpy.linalg", "scipy.linalg"):
            sites += [
                (name, f"import {a.name}", node.lineno)
                for a in node.names
                if (name, node.module, a.name) != ("linalg.py", "numpy.linalg", "_umath_linalg")
            ]
        sites += gufunc_imports(name, node)
    assert [(name, owner) for name, owner, _ in sites] == [("linalg.py", "try_invert")], sites


def test_only_invert_turns_a_singular_verdict_into_an_error():
    # `if try_invert(...) is None: raise SingularMatrixError(...)`, directly or
    # through a name bound to the verdict of try_invert or of a domain's
    # try_denominator_inverse, is written once, in invert
    verdict_makers = {"try_invert", "try_denominator_inverse"}

    def calls(node, names):
        name = dotted(getattr(node, "func", None))
        return name is not None and name.split(".")[-1] in names

    sites = []
    for module, _, fn in package_nodes():
        if not isinstance(fn, ast.FunctionDef):
            continue
        verdicts = {
            target.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Assign) and calls(node.value, verdict_makers)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(fn):
            if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)):
                continue
            left, first = node.test.left, node.body[0]
            tested = calls(left, verdict_makers) or getattr(left, "id", None) in verdicts
            if (
                tested
                and isinstance(node.test.ops[0], ast.Is)
                and isinstance(first, ast.Raise)
                and calls(first.exc, {"SingularMatrixError"})
            ):
                sites.append((module, fn.name, node.lineno))
    assert [(module, fn) for module, fn, _ in sites] == [("linalg.py", "invert")], sites


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


def test_one_settable_tolerance():
    # the invertibility threshold follows from eq_tol and the series tail
    # bound is a module constant, so no caller can set either on its own
    assert list(inspect.signature(linalg.Tolerance).parameters) == ["eq_tol"]
    assert [f.name for f in dataclasses.fields(linalg.Tolerance)] == ["eq_tol"]
    for t in (1e-9, 1e-6, 1e-3, 0.9):
        assert linalg.Tolerance(t).inv_tol == t / 10
    assert linalg.DEFAULT_TOL.inv_tol == 1e-10
    for fn in (linalg.binomial_series, linalg.binomial_series_shifted, linalg.binomial_series_grid):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__


def test_linalg_takes_every_singular_value_and_owns_the_threshold():
    # the largest and smallest singular values come from operator_norm and
    # singular_test, and only linalg compares against inv_tol, so no module
    # keeps a second threshold; verify reads inv_tol for the determinant band,
    # the determinant's own verdict and the report
    svd_sites, inv_tol_reads = [], []
    for name, owner, node in package_nodes():
        if name == "linalg.py":
            continue
        if isinstance(node, ast.Call) and dotted(node.func) == "numpy.linalg.svd":
            if any(
                kw.arg == "compute_uv" and getattr(kw.value, "value", None) is False
                for kw in node.keywords
            ):
                svd_sites.append((name, owner, node.lineno))
        # LAPACK's gufuncs, called or imported, stay in linalg.py too
        if isinstance(node, ast.Call) and "_umath_linalg" in (dotted(node.func) or ""):
            svd_sites.append((name, owner, node.lineno))
        svd_sites += gufunc_imports(name, node)
        if isinstance(node, ast.Attribute) and node.attr == "inv_tol" and name != "verify.py":
            inv_tol_reads.append((name, owner, node.lineno))
    assert (svd_sites, inv_tol_reads) == ([], [])


def test_members_are_drawn_as_stacks():
    # sample_members is the one entry point that draws several members of a
    # domain: it judges its proposals as stacks. A comprehension of
    # random_domain_member calls, a loop that keeps drawing from one domain
    # without stopping at its first member, or two draws from one domain in
    # one body would judge one proposal per call again. A retry loop that
    # breaks off at the first usable member, or a loop that builds a new
    # domain every pass, is one draw.
    loops = (ast.For, ast.While)
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    scopes = loops + comprehensions + (ast.FunctionDef, ast.Lambda)

    def own_nodes(scope):
        """The nodes of a scope's body, without those of the scopes nested in it."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, scopes):
                stack.extend(ast.iter_child_nodes(node))

    def domain_of(call):
        if len(call.args) > 1:
            return call.args[1]
        return next((kw.value for kw in call.keywords if kw.arg == "dom"), None)

    sites = []
    for module, _, scope in package_nodes():
        if not isinstance(scope, scopes):
            continue
        nodes = list(own_nodes(scope))
        draws = [
            ast.dump(domain_of(node))
            for node in nodes
            if isinstance(node, ast.Call) and (dotted(node.func) or "").endswith("random_domain_member")
        ]
        if not draws:
            continue
        rebound = {
            ast.dump(ast.Name(id=target.id, ctx=ast.Load()))
            for node in nodes
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        stops = any(isinstance(node, (ast.Break, ast.Return)) for node in nodes)
        if (
            isinstance(scope, comprehensions)
            or len(draws) > len(set(draws))
            or (isinstance(scope, loops) and not stops and not set(draws) <= rebound)
        ):
            sites.append((module, scope.lineno))
    assert sites == []


# Point evaluations and the command line's usage and input errors, then one
# square root, in an interpreter that has imported nothing yet.
COLD_START = """
import contextlib, io, json, sys
import numpy as np
import lftdom.cli
from lftdom import (
    full_space, invertibles_domain, lft_apply, liouville_curve, mobius_direct, principal_sqrt,
    symmetry_direct, symmetry_map,
)

dom = invertibles_domain(full_space(2, 2))
y = np.diag([2.0, 1.0]).astype(complex)
z = np.array([[1.0, 0.5], [0.0, 3.0]], dtype=complex)
dom.membership(z)
lft_apply(symmetry_map(dom, y), z)
symmetry_direct(dom, y, z)
liouville_curve(dom, np.diag([1.5, 0.75]).astype(complex))(0.5 + 0.25j)
mobius_direct(0.3 * np.eye(2, dtype=complex), 0.5 * np.eye(2, dtype=complex))
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        lftdom.cli.main(["--version"])
    except SystemExit as exc:
        codes.append(exc.code)
    codes.append(lftdom.cli.main(["verify", "--trials", "0"]))
    codes.append(lftdom.cli.main(["transit", "no-such-domain.json", "no-such-target.json"]))
before = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
pool = [name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules]
principal_sqrt(np.diag([4.0, 9.0]).astype(complex))
print(json.dumps({
    "codes": codes, "before": before, "pool": pool, "after": "scipy.linalg" in sys.modules,
}))
"""


def test_a_cold_start_loads_scipy_at_the_first_square_root(tmp_path):
    # the suite has imported scipy already, so the check needs a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    child = subprocess.run(
        [sys.executable, "-c", COLD_START], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    seen = json.loads(child.stdout.splitlines()[-1])
    assert seen["codes"] == [0, 2, 2]
    assert seen["before"] == []
    # verify's worker pool modules load inside run_verify only
    assert seen["pool"] == []
    assert seen["after"] is True
