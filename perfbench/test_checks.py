"""Tests of the benchmark's own checks: each accepts a correct lftdom output
and rejects a corrupted copy of it. Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def verify_output(tmp_path_factory):
    path = tmp_path_factory.mktemp("verify") / "report.json"
    rc, out, _ = workloads._call_cli(["verify", "--trials", "1", "--out", str(path)])
    return rc, out, json.loads(path.read_text())


def test_verify_check_accepts_and_rejects(verify_output):
    rc, out, report = verify_output
    assert checks.check_verify(rc, out, report, tracer.VERIFY_SUITES) == []
    assert checks.check_verify(1, out, report, tracer.VERIFY_SUITES)
    assert checks.check_verify(rc, out.replace("overall: PASS", "overall: FAIL"), report,
                               tracer.VERIFY_SUITES)
    for corrupt in (
        lambda r: r["suites"].pop(),
        lambda r: r["suites"][3].update(passed=False),
        lambda r: r["suites"][5].update(trials=0),
        lambda r: r["suites"][7].update(max_residual=float("inf")),
        lambda r: r.update(passed=False),
    ):
        bad = copy.deepcopy(report)
        corrupt(bad)
        assert checks.check_verify(rc, out, bad, tracer.VERIFY_SUITES)


def test_verify_passes_compare_without_elapsed(verify_output):
    _, _, report = verify_output
    other = copy.deepcopy(report)
    other["suites"][0]["elapsed"] += 1.0
    assert checks.without_elapsed(other) == checks.without_elapsed(report)
    other["suites"][0]["max_residual"] *= 2.0
    assert checks.without_elapsed(other) != checks.without_elapsed(report)


def _transit(tmp_path, spec, target, path=None):
    req = workloads.Request(spec, target, path)
    req.write(str(tmp_path / "req"))
    rc, out, _ = workloads._call_cli(req.argv)
    with open(req.out, encoding="utf-8") as fh:
        return rc, out, json.load(fh)


def _set(obj, m):
    obj.update(inputs.matrix_obj(m))


@pytest.fixture
def chain_case(tmp_path):
    spec = inputs.reference_specs()[1]
    target = np.array([[3.0, 1.0j], [0.5, -1.0]], dtype=complex)
    rc, out, chain = _transit(tmp_path, spec, target)
    assert len(chain["factors"]) >= 4
    return spec, target, rc, out, chain


def test_chain_check_accepts(chain_case):
    spec, target, rc, out, chain = chain_case
    assert checks.check_chain(spec, target, None, rc, out, chain) == []


def test_chain_check_rejects_corruption(chain_case):
    spec, target, rc, out, chain = chain_case
    m1 = inputs.matrix_from(chain["factors"][1]["M"])
    w2 = inputs.matrix_from(chain["waypoints"][2])

    def odd(c):
        c["factors"].pop()
        c["waypoints"].pop()

    def not_involution(c):
        _set(c["factors"][1]["M"], 1.001 * m1)

    def wrong_waypoint(c):
        _set(c["waypoints"][2], w2 + 1e-6)

    def wrong_target(c):
        pass

    for corrupt, tgt in ((odd, target), (not_involution, target),
                         (wrong_waypoint, target), (wrong_target, target + 1e-6)):
        bad = copy.deepcopy(chain)
        corrupt(bad)
        assert checks.check_chain(spec, tgt, None, rc, out, bad), corrupt.__name__
    assert checks.check_chain(spec, target, None, 1, out, chain)


def test_chain_check_rejects_long_steps_and_singular_waypoints(tmp_path):
    spec = inputs.reference_specs()[1]
    target = np.diag([4.0, 0.25]).astype(complex)
    rc, out, chain = _transit(tmp_path, spec, target)
    # the symmetry at a midpoint far along the route maps Z0 straight to the
    # target: a valid involution, but one step longer than the bound
    far = inputs.matrix_from(chain["waypoints"][-1])
    y = np.diag(np.sqrt(np.diag(far))).astype(complex)
    x = np.linalg.inv(y)
    eye = np.eye(2)
    m = np.block([[-(eye - y @ x), 2 * y - y @ x @ y], [x, eye - x @ y]])
    jump = {"waypoints": [chain["waypoints"][0], chain["waypoints"][0], chain["waypoints"][-1]],
            "factors": [{"M": inputs.matrix_obj(np.eye(4))}, {"M": inputs.matrix_obj(m)}]}
    errors = checks.check_chain(spec, target, None, rc, out.replace(
        f"chain with {len(chain['factors'])}", "chain with 2"), jump)
    assert any("step norm" in e for e in errors), errors
    singular = copy.deepcopy(chain)
    _set(singular["waypoints"][1], np.diag([0.0, 1.0]))
    errors = checks.check_chain(spec, target, None, rc, out, singular)
    assert any("singular" in e for e in errors), errors


def test_chain_check_follows_path(tmp_path):
    spec = inputs.reference_specs()[1]
    via = np.array([[1.5, 0.5], [0.0, 1.0]], dtype=complex)
    target = np.diag([2.0, 1.5]).astype(complex)
    path = [spec.z0, via, target]
    rc, out, chain = _transit(tmp_path, spec, target, path)
    assert checks.check_chain(spec, target, path, rc, out, chain) == []
    assert checks.check_chain(spec, target, [spec.z0, via + 0.1, target], rc, out, chain)


def test_clifford_basis_matches_lftdom_quadric():
    gens = workloads.domains.quadric_domain(4).generators
    assert all(np.array_equal(a, b) for a, b in zip(gens, inputs.clifford_basis(4)))


@pytest.fixture(scope="module")
def point_eval():
    wl = workloads.PointEval(5, None, 1)
    return wl, wl.run_block(0)


def test_point_eval_checks_accept(point_eval):
    wl, records = point_eval
    wl.first = None
    assert wl.check_block(0, records) == []
    assert wl.check_block(1, records) == []


def _corrupted(wl, records, kind, change):
    idx = next(i for i, (_, _, d) in enumerate(wl.ops) if d[0] == kind)
    bad = list(records)
    lat, out = bad[idx]
    bad[idx] = (lat, change(out))
    return bad


@pytest.mark.parametrize("kind, change", [
    ("membership", lambda v: workloads.domains.Verdict.SINGULAR
     if v is workloads.domains.Verdict.MEMBER else workloads.domains.Verdict.MEMBER),
    ("direct", lambda z: z + 1e-6),
    ("map", lambda out: (out[0], out[1] + 1e-6)),
    ("curve", lambda z: z + 1e-6),
    ("mobius", lambda z: z * 1.001),
    ("mobius", lambda z: 2.0 * z / checks.opnorm(z)),
])
def test_point_eval_checks_reject(point_eval, kind, change):
    wl, records = point_eval
    wl.first = None
    assert wl.check_block(0, _corrupted(wl, records, kind, change))
    wl.first = None
    wl.check_block(0, records)
    assert wl.check_block(1, _corrupted(wl, records, kind, change))


def test_membership_probes_cover_every_verdict(point_eval):
    wl, records = point_eval
    verdicts = {out.value for (_, _, d), (_, out) in zip(wl.ops, records) if d[0] == "membership"}
    assert verdicts == {"member", "singular", "not-in-space"}


def test_trace_self_check():
    assert tracer.self_check() == []


def test_traced_counts_repeat():
    wl = workloads.PointEval(7, None, 1)
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        with t:
            wl.run_block(0)
        counts.append({k: v for k, v in t.metrics().items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["kernel.factorizations"] > 0


def test_rescaled_requests_fail_every_time(tmp_path):
    block = workloads.transit_round(np.random.default_rng(11))
    expected = [req for req in block if req.expect_fail]
    assert len(expected) == 2
    for i, req in enumerate(expected):
        req.write(str(tmp_path / f"r{i}"))
        rc, _, err = workloads._call_cli(req.argv)
        assert rc == 2 and "singular at the base point" in err
    twin = workloads.transit_round(np.random.default_rng(12))
    assert [r.spec.kind for r in twin if r.expect_fail] == [r.spec.kind for r in expected]
