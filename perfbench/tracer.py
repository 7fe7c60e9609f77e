"""Span tracer for the traced run: wraps lftdom's public functions and the
numpy/scipy linear-algebra entry points, records one span per call and
derives per-layer call counts and self times.

A function is wrapped at every binding site: lftdom modules bind names with
``from .linalg import try_invert``, so the wrapper replaces every module
attribute that is the original object, not only the defining one. Methods
(``Domain.__init__``, ``OperatorSpace.contains``, ``LiouvilleCurve.__call__``
and so on) are replaced on their class. numpy and scipy are patched on the
``numpy.linalg`` and ``scipy.linalg`` namespaces, which is where lftdom looks
them up at call time; numpy's own internal calls (``norm`` calling ``svd``)
do not go through those names and are not counted twice.

Spans live in flat arrays (name id, start, end, parent index) while the run
goes on; ``Tracer.metrics`` turns them into per-layer metrics and
``Tracer.save`` writes them out.
"""

import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("linalg", "spaces", "domains", "automorphisms", "circular",
           "sampling", "verify", "jsonio", "cli")

# span name -> (module, attribute path) of the wrapped callable
FUNCTIONS = {
    "linalg.as_cmatrix": ("linalg", "as_cmatrix"),
    "linalg.operator_norm": ("linalg", "operator_norm"),
    "linalg.try_invert": ("linalg", "try_invert"),
    "linalg.principal_sqrt": ("linalg", "principal_sqrt"),
    "linalg.binomial_series": ("linalg", "binomial_series"),
    "linalg.binomial_series_shifted": ("linalg", "binomial_series_shifted"),
    "spaces.OperatorSpace": ("spaces", "OperatorSpace.__init__"),
    "spaces.contains": ("spaces", "OperatorSpace.contains"),
    "spaces.closed_under_quadratic": ("spaces", "closed_under_quadratic"),
    "spaces.is_power_algebra": ("spaces", "is_power_algebra"),
    "domains.Domain": ("domains", "Domain.__init__"),
    "domains.membership": ("domains", "Domain.membership"),
    "domains.kernel_at": ("domains", "Domain.kernel_at"),
    "domains.lft_apply": ("domains", "lft_apply"),
    "domains.det_membership": ("domains", "det_membership"),
    "automorphisms.symmetry_map": ("automorphisms", "symmetry_map"),
    "automorphisms.symmetry_direct": ("automorphisms", "symmetry_direct"),
    "automorphisms.find_midpoint": ("automorphisms", "find_midpoint"),
    "automorphisms.transitive_chain": ("automorphisms", "transitive_chain"),
    "automorphisms.compose_symmetries_affine": ("automorphisms", "compose_symmetries_affine"),
    "automorphisms.affine_transport": ("automorphisms", "affine_transport"),
    "automorphisms.swap_involution": ("automorphisms", "swap_involution"),
    "automorphisms.liouville_curve": ("automorphisms", "liouville_curve"),
    "automorphisms.curve_eval": ("automorphisms", "LiouvilleCurve.__call__"),
    "jsonio.loads": ("jsonio", "loads"),
    "jsonio.dumps": ("jsonio", "dumps"),
    "jsonio.domain_from_obj": ("jsonio", "domain_from_obj"),
    "jsonio.chain_to_obj": ("jsonio", "chain_to_obj"),
    "cli.main": ("cli", "main"),
}

# traced so that their own time is not counted as the caller's self time,
# but not reported
UNREPORTED = {
    "verify.run_verify": ("verify", "run_verify"),
}

# modules whose public functions are traced as one group
GROUPS = ("circular", "sampling")

# kernel span name -> category; norm is traced only for ord=2 (one SVD)
KERNELS = {
    ("numpy.linalg", "svd"): "svd",
    ("numpy.linalg", "norm"): "svd",
    ("numpy.linalg", "matrix_rank"): "svd",
    ("numpy.linalg", "inv"): "inv",
    ("numpy.linalg", "solve"): "solve",
    ("numpy.linalg", "eigvals"): "eig",
    ("numpy.linalg", "eigvalsh"): "eig",
    ("numpy.linalg", "eigh"): "eig",
    ("scipy.linalg", "sqrtm"): "sqrtm",
    ("numpy.linalg", "qr"): "other",
    ("numpy.linalg", "lstsq"): "other",
    ("numpy.linalg", "det"): "other",
    ("scipy.linalg", "expm"): "other",
    ("scipy.linalg", "null_space"): "other",
}
KERNEL_CATEGORIES = ("svd", "inv", "solve", "eig", "sqrtm", "other")

VERIFY_SUITES = (
    "symmetry-involution", "symmetry-dual-route", "midpoint-swap",
    "chain-transitivity", "affine-pair-fold", "affine-transport",
    "swap-involution", "affine-equivalence", "potapov-ginzburg",
    "liouville-curve", "determinant-membership", "connectivity-class",
    "siegel-stacked", "exterior-isometry", "mobius-ball",
    "product-transport", "hyperbolic-transport", "quadric-closed-form",
)


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for cat in KERNEL_CATEGORIES:
        units[f"kernel.{cat}.calls"] = "count"
    units["kernel.factorizations"] = "count"
    units["kernel.self_s"] = "s"
    for name in FUNCTIONS:
        if not name.startswith(("jsonio.", "cli.")):
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name == "automorphisms.curve_eval":
            units["automorphisms.chain_factors"] = "count"
            units["automorphisms.chain_factors_max"] = "count"
    for group in GROUPS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
    for suite in VERIFY_SUITES:
        units[f"verify.{suite}.s"] = "s"
    units["jsonio.bytes_in"] = "B"
    units["jsonio.bytes_out"] = "B"
    units["trace.overhead_s"] = "s"
    return units


def _resolve(owner, path):
    """(holder, attribute, value) for a dotted attribute path under owner."""
    *heads, last = path.split(".")
    holder = owner
    for head in heads:
        holder = getattr(holder, head)
    return holder, last, inspect.getattr_static(holder, last)


class Tracer:
    """Records spans around wrapped calls while installed."""

    def __init__(self):
        self.names = []                 # span name per id
        self.name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.chain_factors = []         # factor count of every chain built
        self.bytes_in = 0
        self.bytes_out = 0
        self._stack = [-1]
        self._undo = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name, after=None):
        nid = self._name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_norm(self, fn):
        traced = self._wrap(fn, "kernel.svd")

        def norm(x, ord=None, *args, **kwargs):
            if ord in (2, -2) and np.ndim(x) == 2:
                return traced(x, ord, *args, **kwargs)
            return fn(x, ord, *args, **kwargs)

        norm.__wrapped__ = fn
        return norm

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def _replace_everywhere(self, original, wrapper, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        pkg = importlib.import_module("lftdom")
        mods = {m: importlib.import_module(f"lftdom.{m}") for m in MODULES}
        sites = [pkg, *mods.values()]
        hooks = {
            "automorphisms.transitive_chain":
                lambda args, chain: self.chain_factors.append(len(chain.factors)),
            "jsonio.loads": self._count_in,
            "jsonio.dumps": self._count_out,
        }
        targets = []
        for name, (mod, path) in {**FUNCTIONS, **UNREPORTED}.items():
            holder, attr, fn = _resolve(mods[mod], path)
            targets.append((name, holder, attr, fn, hooks.get(name)))
        for group in GROUPS:
            mod = mods[group]
            for attr, fn in sorted(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets.append((group, mod, attr, fn, None))
        for name, holder, attr, fn, hook in targets:
            wrapper = self._wrap(fn, name, hook)
            if inspect.isclass(holder):
                self._set(holder, attr, wrapper)
            else:
                self._replace_everywhere(fn, wrapper, sites)
        for (modname, attr), cat in KERNELS.items():
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            if attr == "norm":
                wrapper = self._wrap_norm(fn)
            else:
                wrapper = self._wrap(fn, f"kernel.{cat}")
            self._set(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _count_in(self, args, result):
        self.bytes_in += len(args[0])

    def _count_out(self, args, result):
        self.bytes_out += len(result)

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end."""
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def totals(self):
        """{span name: (calls, self seconds)}.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so the children never overlap.
        """
        name, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        secs = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def metrics(self):
        """Per-layer metrics except the verify rows and trace overhead."""
        totals = self.totals()
        out = {}
        kernel_calls = 0
        kernel_self = 0.0
        for cat in KERNEL_CATEGORIES:
            calls, secs = totals.get(f"kernel.{cat}", (0, 0.0))
            out[f"kernel.{cat}.calls"] = calls
            kernel_calls += calls
            kernel_self += secs
        out["kernel.factorizations"] = kernel_calls
        out["kernel.self_s"] = kernel_self
        for name in (*FUNCTIONS, *GROUPS):
            calls, secs = totals.get(name, (0, 0.0))
            if not name.startswith(("jsonio.", "cli.")):
                out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = secs
        out["automorphisms.chain_factors"] = sum(self.chain_factors)
        out["automorphisms.chain_factors_max"] = max(self.chain_factors, default=0)
        out["jsonio.bytes_in"] = self.bytes_in
        out["jsonio.bytes_out"] = self.bytes_out
        return out

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def self_check():
    """Errors unless traced counts match cProfile on one fixed small call.

    One transitive chain on the invertible 2x2 matrices runs under cProfile
    and twice under the tracer; the traced calls of try_invert, lft_apply
    and the SVD (direct or inside norm(., 2)) must equal cProfile's counts,
    which include calls made inside the package, and repeat exactly.
    """
    import cProfile
    import pstats
    from lftdom import automorphisms, domains, spaces

    dom = domains.invertibles_domain(spaces.full_space(2, 2))
    target = np.array([[2.0, 0.5], [0.25, 1.5]], dtype=complex)
    prof = cProfile.Profile()
    prof.runcall(automorphisms.transitive_chain, dom, target)
    stats = pstats.Stats(prof).stats

    def profiled(where, func):
        return sum(v[1] for (path, _, name), v in stats.items()
                   if name == func and where in path.replace("\\", "/"))

    want = {"linalg.try_invert": profiled("lftdom/linalg.py", "try_invert"),
            "domains.lft_apply": profiled("lftdom/domains.py", "lft_apply"),
            "kernel.svd": profiled("numpy/linalg/", "svd")}
    runs = []
    for _ in range(2):
        tracer = Tracer()
        with tracer:
            automorphisms.transitive_chain(dom, target)
        totals = tracer.totals()
        runs.append({name: totals.get(name, (0, 0.0))[0] for name in want})
    errors = []
    if runs[0] != want:
        errors.append(f"trace self-check: traced counts {runs[0]} != cProfile {want}")
    if runs[1] != runs[0]:
        errors.append(f"trace self-check: two traced runs differ: {runs}")
    if min(want.values()) == 0:
        errors.append(f"trace self-check: cProfile saw no calls: {want}")
    return errors
