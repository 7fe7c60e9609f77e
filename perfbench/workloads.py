"""The three workloads. Each builds its inputs from the seed in set-up,
runs blocks of operations as a closed loop from one thread, and checks every
output outside the timed phase.

A workload is built from (seed, work directory, rounds), where a round is
the workload's fixed mix of operations and round_s its nominal time on the
reference machine, and exposes
    blocks                number of timed blocks, run one after another
    block_s               nominal time of one block
    warm_up()             calls that load lazy state before timing
    run_block(b)          runs block b, returns its records
    check_block(b, recs)  error strings for block b's outputs
where records are (latency seconds or None for a failed operation, output).
The host speed is calibrated between blocks.
"""

import contextlib
import io
import json
import os
import time

import numpy as np
from lftdom import automorphisms, circular, cli, domains, spaces

import checks
import inputs
from tracer import VERIFY_SUITES as SUITES

clock = time.perf_counter


def _call_cli(argv):
    """lftdom.cli.main(argv) with its standard streams captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class VerifyDefault:
    """One operation is `lftdom verify` at its default flags (seed 0).

    The verify seed is not taken from the benchmark seed: chain lengths in
    the chain-transitivity suite are heavy-tailed in the seed, so one verify
    took 18 s at seed 0 and 37 s at seed 1 on the reference machine, and a
    seeded verify would measure the seed rather than the program. A verify
    takes 12-19 s there, depending on the host's speed.
    """

    name = "verify-default"
    round_s = block_s = 15.0

    def __init__(self, seed, workdir, rounds):
        self.blocks = rounds
        self.workdir = workdir
        self.reports = []

    def _report_path(self, b):
        return os.path.join(self.workdir, f"verify-{b}.json")

    def warm_up(self):
        path = self._report_path("warm")
        rc, _, err = _call_cli(["verify", "--trials", "1", "--out", path])
        if rc != 0:
            raise RuntimeError(f"warm-up verify failed: {err}")

    def run_block(self, b):
        t0 = clock()
        rc, out, _ = _call_cli(["verify", "--out", self._report_path(b)])
        return [(clock() - t0, (rc, out))]

    def check_block(self, b, records):
        (_, (rc, out)), = records
        path = self._report_path(b)
        if not os.path.exists(path):
            return [f"verify exit code {rc} and no report"]
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(path)
        errors = checks.check_verify(rc, out, report, SUITES)
        if self.reports and checks.without_elapsed(report) != checks.without_elapsed(self.reports[0]):
            errors.append("verify passes differ apart from elapsed")
        self.reports.append(report)
        return errors

    def suite_seconds(self):
        """Median elapsed seconds of each report row over the checked passes."""
        rows = {}
        for report in self.reports:
            for row in report["suites"]:
                rows.setdefault(row["name"], []).append(row["elapsed"])
        return {name: float(np.median(v)) for name, v in rows.items()}


# straight-route step counts per block for each domain kind: quantiles of
# the kind's own distribution over random targets, plus one tail request
REFERENCE_STEPS = {
    "whole-space": [1, 1],
    "invertibles": [4, 8, 16, 64],
    "projection": [2, 4, 8, 32],
    "hyperplane-complement": [1, 2, 4],
    "rank-one-pairing": [1, 2, 4, 16],
    "quadric": [4, 8, 16, 32, 512],
}
RANDOM_STEPS = {
    ("full", 2): [4, 4, 8],
    ("full", 3): [8, 8, 16],
    ("full", 4): [8, 16, 32],
    ("full", 6): [16, 32, 64, 128],
    ("full", 8): [32, 64, 128, 256],
    ("symmetric", 4): [8, 16, 32],
    ("upper", 4): [8, 16, 32],
}
# requests with an explicit path Z0 -> V -> target, each leg at most 16 steps
PATH_KINDS = [("invertibles", None), ("quadric", None), ("full", 4), ("symmetric", 4)]
RESCALE = 1e-11


def fault_twins():
    """Fixed requests, independent of the seed, and their rescaled copies.

    (sC, sD) describes the same domain as (C, D), yet lftdom rejects the
    rescaled copies: try_invert compares the smallest singular value of
    C Z0 + D with an absolute tolerance. They are counted as failed.
    """
    rng = np.random.default_rng(20_260_101)
    twins = [(inputs.reference_specs()[1], np.diag([2.0, 0.5]).astype(complex))]
    spec = inputs.random_spec(rng, "full", 3)
    twins.append((spec, inputs.target_in_bucket(rng, spec, 8)))
    return twins


class Request:
    def __init__(self, spec, target, path=None, expect_fail=False):
        self.spec, self.target, self.path = spec, target, path
        self.expect_fail = expect_fail
        self.argv = None

    def write(self, stem):
        files = [f"{stem}-domain.json", f"{stem}-target.json"]
        inputs.write_json(files[0], self.spec.to_obj())
        inputs.write_json(files[1], inputs.matrix_obj(self.target))
        if self.path is not None:
            files.append(f"{stem}-path.json")
            inputs.write_json(files[2], {"waypoints": [inputs.matrix_obj(p) for p in self.path]})
        self.out = f"{stem}-chain.json"
        self.argv = ["transit", *files, "--out", self.out]


def transit_round(rng):
    """One round of requests: every slot of the mix, in a seeded order."""
    refs = {spec.kind: spec for spec in inputs.reference_specs()}
    requests = []
    for kind, steps in REFERENCE_STEPS.items():
        for n in steps:
            requests.append(Request(refs[kind], inputs.target_in_bucket(rng, refs[kind], n)))
    for (kind, size), steps in RANDOM_STEPS.items():
        for n in steps:
            while True:
                spec = inputs.random_spec(rng, kind, size)
                try:
                    target = inputs.target_in_bucket(rng, spec, n, cap_draws=200)
                    break
                except RuntimeError:
                    continue
            requests.append(Request(spec, target))
    for kind, size in PATH_KINDS:
        spec = refs[kind] if size is None else inputs.random_spec(rng, kind, size)
        points = inputs.polyline(rng, spec, 2, 16)
        requests.append(Request(spec, points[-1], path=points))
    order = rng.permutation(len(requests))
    requests = [requests[i] for i in order]
    for spec, target in fault_twins():
        requests.append(Request(spec, target))
        requests.append(Request(spec.scaled(RESCALE), target, expect_fail=True))
    return requests


class TransitMixed:
    """One operation is one `lftdom transit` request through cli.main.
    Every round draws fresh requests for the same mix; a block is one
    request."""

    name = "transit-mixed"
    round_s = 6.3
    block_s = round_s / 53      # 53 requests a round

    def __init__(self, seed, workdir, rounds):
        rng = np.random.default_rng([seed, 2])
        first, *rest = [transit_round(rng) for _ in range(rounds)]
        self.requests = first + [req for r in rest for req in r]
        for i, req in enumerate(self.requests):
            req.write(os.path.join(workdir, f"r{i}"))
        self.blocks = len(self.requests)
        self.warm = first[:3] + [req for req in first if req.expect_fail]

    def warm_up(self):
        for req in self.warm:
            _call_cli(req.argv)

    def run_block(self, b):
        req = self.requests[b]
        t0 = clock()
        rc, out, err = _call_cli(req.argv)
        return [(clock() - t0 if rc == 0 else None, (rc, out, err))]

    def check_block(self, b, records):
        req = self.requests[b]
        (_, (rc, out, err)), = records
        if rc != 0:
            if req.expect_fail:
                return []
            return [f"{req.spec.kind} request failed ({rc}): {err.strip()}"]
        with open(req.out, encoding="utf-8") as fh:
            chain = json.load(fh)
        os.remove(req.out)
        return checks.check_chain(req.spec, req.target, req.path, rc, out, chain)


class PointEval:
    """One operation is one lftdom call on a prebuilt domain: a membership
    verdict, a symmetry image by either route, a Liouville-curve value or a
    mobius_direct value. Every block repeats the same operations."""

    name = "point-eval"
    round_s = block_s = 0.105

    def __init__(self, seed, workdir, rounds):
        self.blocks = rounds
        rng = np.random.default_rng([seed, 3])
        specs = inputs.reference_specs() + [inputs.random_spec(rng, "full", n) for n in (4, 8)]
        ops = []         # (function, arguments, check description)
        for spec in specs:
            dom = build_domain(spec)
            for z in point_set(rng, spec):
                ops.append((_membership, (dom, z), ("membership", spec, z)))
            for _ in range(8):
                y, z = member(rng, spec), member(rng, spec)
                ops.append((_direct, (dom, y, z), ("direct", y)))
                ops.append((_via_map, (dom, y, z), ("map", spec, y, z)))
            for rho in (0.25, 0.5, 0.75):
                for _ in range(2):
                    z = curve_endpoint(rng, spec, rho)
                    curve = automorphisms.liouville_curve(dom, z)
                    for modulus in (0.5, 1.0, 2.0):
                        lam = modulus * np.exp(2j * np.pi * rng.uniform())
                        ops.append((curve, (lam,), ("curve", spec, z, lam)))
        for shape in ((2, 2), (4, 4), (3, 2)):
            for nb in (0.3, 0.6, 0.9):
                for nz in (0.3, 0.8):
                    for _ in range(4):
                        b, z = ball_point(rng, shape, nb), ball_point(rng, shape, nz)
                        ops.append((_mobius, (b, z), ("mobius", b, z)))
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.first = None

    def warm_up(self):
        self.run_block(-1)

    def run_block(self, b):
        records = []
        for fn, args, _ in self.ops:
            t0 = clock()
            try:
                out = fn(*args)
            except Exception as exc:  # an operation that raises is a failed one
                records.append((None, exc))
                continue
            records.append((clock() - t0, out))
        return records

    def check_block(self, b, records):
        outputs = [out for _, out in records]
        failures = [f"{desc[0]} raised {out!r}" for (_, _, desc), (lat, out)
                    in zip(self.ops, records) if lat is None]
        if failures or self.first is not None:
            if failures or all(_same(x, y) for x, y in zip(outputs, self.first)):
                return failures
            return [f"block {b} outputs differ from block 0"]
        self.first = outputs
        direct = {id(desc[1]): out for (_, _, desc), out in zip(self.ops, outputs)
                  if desc[0] == "direct"}
        errors = []
        for (_, _, (kind, *rest)), out in zip(self.ops, outputs):
            if kind == "membership":
                errors += checks.check_membership(*rest, out.value)
            elif kind == "map":
                spec, y, z = rest
                u, image = out
                errors += checks.check_symmetry(spec, y, z, direct[id(y)], image,
                                                u.coefficient_matrix())
            elif kind == "curve":
                errors += checks.check_curve(*rest, out)
            elif kind == "mobius":
                errors += checks.check_mobius(*rest, out)
        return errors


# The operations look lftdom's functions up when called, so that the traced
# run sees them through the wrappers the tracer installs.
def _membership(dom, z):
    return dom.membership(z)


def _direct(dom, y, z):
    return automorphisms.symmetry_direct(dom, y, z)


def _via_map(dom, y, z):
    u = automorphisms.symmetry_map(dom, y)
    return u, domains.lft_apply(u, z)


def _mobius(b, z):
    return circular.mobius_direct(b, z)


def build_domain(spec):
    """The lftdom Domain a spec describes, through lftdom's own constructors
    for the reference kinds."""
    if spec.basis is None:
        space = spaces.full_space(*spec.shape)
    else:
        space = spaces.OperatorSpace(*spec.shape, spec.basis)
    if spec.kind == "whole-space":
        return domains.whole_space_domain(space)
    if spec.kind == "invertibles":
        return domains.invertibles_domain(space)
    if spec.kind == "projection":
        return domains.projection_domain(space, spec.c)
    if spec.kind == "hyperplane-complement":
        return domains.hyperplane_complement_domain(spec.c.conj().T, spec.d[0, 0])
    if spec.kind == "rank-one-pairing":
        y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        return domains.rank_one_pairing_domain(space, [1.0, 0.0], y, 0.6)
    if spec.kind == "quadric":
        return domains.quadric_domain(4).domain
    return domains.Domain(space, spec.c, spec.d, spec.z0)


def _same(x, y):
    if isinstance(x, tuple):
        return all(_same(a, b) for a, b in zip(x, y))
    if hasattr(x, "coefficient_matrix"):
        return np.array_equal(x.coefficient_matrix(), y.coefficient_matrix())
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y


def member(rng, spec, clearance=1e-3):
    """A random member of the space with C Z + D well conditioned."""
    while True:
        z = spec.z0 + spec.member_like(rng)
        if inputs.smin_ratio(spec.c @ z + spec.d) > clearance:
            return z


def point_set(rng, spec):
    """Membership probes: members, exact singular points where C is onto,
    and points off the space when the space is not full."""
    points = [member(rng, spec) for _ in range(6)]
    c = spec.c
    if spec.basis is None and np.linalg.matrix_rank(c) == c.shape[0] and c.any():
        for _ in range(2):
            z = member(rng, spec)
            u, s, vh = np.linalg.svd(c @ z + spec.d)
            points.append(z - np.linalg.pinv(c) @ (s[-1] * np.outer(u[:, -1], vh[-1])))
    if spec.kind == "quadric":
        g = spec.span
        for _ in range(2):
            a = rand_scalar(rng)
            points.append(a * (g[1] + 1j * g[2]))          # sum z_i^2 = 0: singular
            off = inputs.rand_matrix(rng, *spec.shape)
            off -= (spec.onb @ (spec.onb.conj().T @ off.ravel())).reshape(spec.shape)
            points.append(member(rng, spec) + off / np.linalg.norm(off))
    return points


def rand_scalar(rng):
    return complex(rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform()))


def curve_endpoint(rng, spec, rho):
    """Z0 + a space direction scaled so that ||X0 (Z - Z0)|| = rho."""
    x0 = np.linalg.solve(spec.c @ spec.z0 + spec.d, spec.c)
    while True:
        delta = spec.member_like(rng)
        pull = checks.opnorm(x0 @ delta)
        if pull > 1e-9:
            return spec.z0 + delta * (rho / pull)
        if not spec.c.any():
            return spec.z0 + delta


def ball_point(rng, shape, radius):
    z = inputs.rand_matrix(rng, *shape)
    return z * (radius / checks.opnorm(z))


WORKLOADS = {w.name: w for w in (VerifyDefault, TransitMixed, PointEval)}
