"""End-to-end command line checks plus the JSON wire formats."""

import json
import multiprocessing
import os
import sys

import numpy as np
import pytest

from lftdom import SingularMatrixError, full_space, jsonio, verify, whole_space_domain
from lftdom.cli import main
from lftdom.domains import LFTMap, lft_apply


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


def matrix_obj(values):
    return jsonio.matrix_to_obj(np.asarray(values, dtype=complex))


def invertibles_domain_obj():
    # 1 x 1 reciprocal-type domain: C = 1, D = 0, base point 1.
    return {
        "space": "full",
        "C": matrix_obj([[1.0]]),
        "D": matrix_obj([[0.0]]),
        "Z0": matrix_obj([[1.0]]),
    }


def whole_space_domain_obj():
    return {
        "space": "full",
        "C": matrix_obj([[0.0]]),
        "D": matrix_obj([[1.0]]),
        "Z0": matrix_obj([[0.0]]),
    }


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


def test_matrix_json_round_trip_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        back = jsonio.matrix_loads(jsonio.matrix_dumps(m))
        assert np.array_equal(back, m)


def test_matrix_json_matches_per_entry_floats_byte_for_byte():
    rng = np.random.default_rng(49)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    m[0, 0] = complex(-0.0, -0.0)
    m[1, 2] = complex(5e-324, -2.2250738585072014e-309)
    m[3, 4] = complex(-4e-320, 0.0)
    per_entry = {
        "rows": 16,
        "cols": 16,
        "re": [[float(v.real) for v in row] for row in m],
        "im": [[float(v.imag) for v in row] for row in m],
    }
    assert jsonio.dumps(jsonio.matrix_to_obj(m)) == jsonio.dumps(per_entry)
    assert '"re": [\n    [\n      -0.0,' in jsonio.dumps(jsonio.matrix_to_obj(m))


def test_matrix_json_rejects_bad_payloads():
    with pytest.raises(ValueError, match="lacks fields"):
        jsonio.matrix_from_obj({"rows": 1, "cols": 1, "re": [[0.0]]})
    with pytest.raises(ValueError, match="is not a number"):
        jsonio.matrix_from_obj(
            {"rows": 1, "cols": 1, "re": [[True]], "im": [[0.0]]}
        )
    with pytest.raises(ValueError, match="must have 2 entries"):
        jsonio.matrix_from_obj(
            {"rows": 1, "cols": 2, "re": [[1.0]], "im": [[0.0, 0.0]]}
        )
    for entry in (True, None, "1.5", [1.0], {}):
        with pytest.raises(ValueError, match=r"entry \(0,1\) of field 'im' is not a number"):
            jsonio.matrix_from_obj(
                {"rows": 1, "cols": 2, "re": [[1.0, 2]], "im": [[0.0, entry]]}
            )
    with pytest.raises(ValueError, match="row 1 of field 're' must have 2 entries"):
        jsonio.matrix_from_obj({"rows": 2, "cols": 2, "re": [[1, 2], 3], "im": [[0, 0], [0, 0]]})
    # numbers of other numeric types are read as before
    m = jsonio.matrix_from_obj(
        {"rows": 1, "cols": 2, "re": [[np.float64(0.5), 2**70]], "im": [[np.float64(-0.0), 3]]}
    )
    assert np.array_equal(m, np.array([[0.5 - 0.0j, float(2**70) + 3j]]))
    with pytest.raises(ValueError, match="non-finite numeric token"):
        jsonio.loads('{"rows": 1, "cols": 1, "re": [[Infinity]], "im": [[0.0]]}')
    with pytest.raises(ValueError, match="finite"):
        jsonio.matrix_to_obj(np.array([[np.inf]]))


def test_domain_json_round_trip():
    obj = invertibles_domain_obj()
    dom = jsonio.domain_from_obj(obj)
    assert jsonio.domain_to_obj(dom) == obj

    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    e22 = np.array([[0.0, 0.0], [0.0, 1.0]])
    diag_obj = {
        "space": {"basis": [matrix_obj(e11), matrix_obj(e22)]},
        "C": matrix_obj(np.eye(2)),
        "D": matrix_obj(np.zeros((2, 2))),
        "Z0": matrix_obj(np.eye(2)),
    }
    dom = jsonio.domain_from_obj(diag_obj)
    assert not dom.space.is_full
    assert jsonio.domain_to_obj(dom) == diag_obj

    with pytest.raises(ValueError, match="lacks fields"):
        jsonio.domain_from_obj({"space": "full"})
    with pytest.raises(ValueError, match='"space"'):
        jsonio.domain_from_obj(
            {"space": "diag", "C": obj["C"], "D": obj["D"], "Z0": obj["Z0"]}
        )


def test_path_from_obj_validations():
    with pytest.raises(ValueError, match="waypoints"):
        jsonio.path_from_obj({"points": []})
    with pytest.raises(ValueError, match="at least two"):
        jsonio.path_from_obj({"waypoints": [matrix_obj([[1.0]])]})
    points = jsonio.path_from_obj(
        {"waypoints": [matrix_obj([[1.0]]), matrix_obj([[2.0]])]}
    )
    assert len(points) == 2 and points[1][0, 0] == 2.0


def test_verify_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["verify", "--trials", "2", "--seed", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[-1] == "overall: PASS"
    for line in lines[:-1]:
        assert line.startswith("PASS  ")
        assert "max_residual=" in line and "[" in line
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is True
    assert len(report["suites"]) == len(lines) - 1
    for row in report["suites"]:
        assert row["passed"] is True
        assert row["max_residual"] < 1.0


def test_verify_same_seed_reports_match(tmp_path, capsys):
    args = ["verify", "--trials", "2", "--seed", "11"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    stdout_first = capsys.readouterr().out
    assert main(args + ["--out", str(second)]) == 0
    stdout_second = capsys.readouterr().out
    assert stdout_first == stdout_second
    a = strip_elapsed(json.loads(first.read_text(encoding="utf-8")))
    b = strip_elapsed(json.loads(second.read_text(encoding="utf-8")))
    assert a == b


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    # main parses every call with the same parser, so no flag value may carry over
    out = tmp_path / "demo.txt"
    assert main(["demo", "0", "--out", str(out)]) == 0
    written = out.read_text(encoding="utf-8")
    assert capsys.readouterr().out == written
    assert main(["demo", "0"]) == 0
    assert capsys.readouterr().out == written
    assert out.read_text(encoding="utf-8") == written

    seeded, plain = tmp_path / "seed2.json", tmp_path / "plain.json"
    assert main(["verify", "--trials", "1", "--seed", "2", "--out", str(seeded)]) == 0
    assert main(["verify", "--trials", "1", "--out", str(plain)]) == 0
    capsys.readouterr()
    fresh = json.loads(jsonio.dumps(verify.run_verify(verify.RunConfig(trials=1))))
    plain = strip_elapsed(json.loads(plain.read_text(encoding="utf-8")))
    assert plain == strip_elapsed(fresh)
    assert strip_elapsed(json.loads(seeded.read_text(encoding="utf-8"))) != plain

    assert main(["verify", "--trials", "0"]) == 2
    assert "usage error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--no-such-flag"])
    assert exc.value.code == 2


def test_verify_aborted_suites_keep_their_rows(monkeypatch, tmp_path, capsys):
    def raise_lftdom(config, rng, track):
        raise SingularMatrixError("planted failure")

    def raise_linalg(config, rng, track):
        raise np.linalg.LinAlgError("planted failure")

    planted = {"midpoint-swap": raise_lftdom, "liouville-curve": raise_linalg}
    names = [name for name, _, _ in verify.SUITES]
    suites = tuple(
        (name, planted.get(name, suite), anchor) for name, suite, anchor in verify.SUITES
    )
    monkeypatch.setattr(verify, "SUITES", suites)
    out = tmp_path / "report.json"
    rc = main(["verify", "--trials", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out.strip().splitlines()[-1] == "overall: FAIL"
    for line in captured.out.strip().splitlines()[:-1]:
        name = line.split()[1]
        assert ("max_residual=null" in line) is (name in planted), line
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is False
    assert [row["name"] for row in report["suites"]] == names
    assert len(names) == 18
    for row in report["suites"]:
        assert row["passed"] is (row["name"] not in planted), row["name"]
        assert (row["max_residual"] is None) is (row["name"] in planted), row["name"]
    by_name = {row["name"]: row for row in report["suites"]}
    assert by_name["midpoint-swap"]["anchor"].startswith("suite aborted: SingularMatrixError")
    assert by_name["liouville-curve"]["anchor"].startswith("suite aborted: LinAlgError")


def test_verify_failed_check_gives_a_fail_row(monkeypatch, tmp_path, capsys):
    def fail_one_check(config, rng, track):
        track.add(1e-14, 1e-12)
        track.require(False)
        return 1

    name, _, anchor = verify.SUITES[0]
    monkeypatch.setattr(verify, "SUITES", ((name, fail_one_check, anchor),))
    out = tmp_path / "report.json"
    rc = main(["verify", "--trials", "1", "--out", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1
    assert lines[0].startswith(f"FAIL  {name}")
    assert lines[-1] == "overall: FAIL"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is False
    (row,) = report["suites"]
    assert row["name"] == name and row["anchor"] == anchor
    assert row["passed"] is False and row["trials"] == 1
    assert np.isfinite(row["max_residual"]) and row["max_residual"] >= 1.0


def test_verify_nan_residual_gives_a_fail_row(monkeypatch, tmp_path, capsys):
    def nan_check(config, rng, track):
        track.add(1e-14, 1e-12)
        track.add(float("nan"), 1e-8)
        track.add(1e-13, 1e-12)
        return 1

    name, _, anchor = verify.SUITES[0]
    monkeypatch.setattr(verify, "SUITES", ((name, nan_check, anchor),))
    out = tmp_path / "report.json"
    rc = main(["verify", "--trials", "1", "--out", str(out)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 1
    assert lines[0].startswith(f"FAIL  {name}")
    assert "max_residual=null  [" in lines[0]
    assert lines[-1] == "overall: FAIL"
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is False
    (row,) = report["suites"]
    assert row["passed"] is False and row["trials"] == 1
    assert row["max_residual"] is None


def test_usage_errors_exit_two(capsys):
    assert main(["verify", "--trials", "0"]) == 2
    assert "usage error:" in capsys.readouterr().err
    assert main(["verify", "--dim-h", "9"]) == 2
    assert "usage error:" in capsys.readouterr().err
    assert main(["verify", "--tol", "0"]) == 2
    err = capsys.readouterr().err
    assert "usage error:" in err and "between 0 and 1" in err


def test_flags_belong_to_the_subcommand(capsys):
    # the common flags exist once, on each subcommand, not on the top parser
    with pytest.raises(SystemExit) as exc:
        main(["--trials", "3", "verify"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_each_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys):
    files = [str(tmp_path / "dom.json"), str(tmp_path / "target.json")]
    for argv in (
        ["demo", "0", "--trials", "2"],
        ["transit", *files, "--seed", "1"],
        ["transit", *files, "--trials", "2"],
        ["transit", *files, "--dim-k", "2"],
        ["transit", *files, "--dim-h", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_an_unwritable_out_file_is_an_input_error(tmp_path, capsys):
    out = str(tmp_path / "missing" / "dir" / "r.json")
    for argv in (["verify", "--trials", "1", "--out", out], ["demo", "0", "--out", out]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and "No such file or directory" in captured.err
        # found before any suite or demo runs: no row and no demo line
        assert captured.out == "", argv
    (tmp_path / "folder").mkdir()
    (tmp_path / "file").write_text("", encoding="utf-8")
    for out, reason in (
        (tmp_path / "folder", "Is a directory"),
        (tmp_path / "file" / "r.json", "Not a directory"),
    ):
        assert main(["verify", "--trials", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and reason in captured.err
        assert captured.out == ""


def test_verify_creates_its_out_file_only_with_the_report(monkeypatch, tmp_path, capsys):
    out = tmp_path / "report.json"
    seen = []

    def look_for_the_file(config, rng, track):
        seen.append(out.exists())
        track.add(0.0, 1e-12)
        return 1

    name, _, anchor = verify.SUITES[0]
    monkeypatch.setattr(verify, "SUITES", ((name, look_for_the_file, anchor),))
    assert main(["verify", "--trials", "1", "--out", str(out)]) == 0
    assert seen == [False]
    assert json.loads(out.read_text(encoding="utf-8"))["passed"] is True
    capsys.readouterr()


# run_verify forks its worker pool only on Linux
LINUX_ONLY = pytest.mark.skipif(sys.platform != "linux", reason="no worker pool off Linux")


def use_cpus(monkeypatch, count):
    # run_verify sizes its pool from the CPUs this process may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def plant(monkeypatch, index, suite):
    suites = list(verify.SUITES)
    name, _, anchor = suites[index]
    suites[index] = (name, suite, anchor)
    monkeypatch.setattr(verify, "SUITES", tuple(suites))


@LINUX_ONLY
def test_verify_rows_come_from_forked_workers_given_two_cpus(monkeypatch):
    def report_pid(config, rng, track):
        track.add(0.0, 1e-12)
        return os.getpid()

    name, _, anchor = verify.SUITES[0]
    monkeypatch.setattr(verify, "SUITES", ((name, report_pid, anchor),) * 3)
    config = verify.RunConfig(trials=1)
    use_cpus(monkeypatch, 2)
    pids = {row["trials"] for row in verify.run_verify(config)["suites"]}
    assert multiprocessing.active_children() == []
    assert os.getpid() not in pids and 1 <= len(pids) <= 2
    use_cpus(monkeypatch, 1)
    pids = {row["trials"] for row in verify.run_verify(config)["suites"]}
    assert pids == {os.getpid()}


@LINUX_ONLY
def test_pooled_rows_equal_the_rows_built_in_process(monkeypatch):
    def raise_in_suite(config, rng, track):
        track.add(0.0, 1e-12)
        verify.RunConfig(trials=0)  # raises inside the package

    plant(monkeypatch, 4, raise_in_suite)
    use_cpus(monkeypatch, 2)
    for config in (
        verify.RunConfig(trials=2),
        verify.RunConfig(trials=2, seed=3),
        verify.RunConfig(trials=2, dim_k=3, dim_h=1),
    ):
        report = verify.run_verify(config)
        assert multiprocessing.active_children() == []
        in_process = [verify.suite_row(config, index) for index in range(len(verify.SUITES))]
        assert strip_elapsed(report["suites"]) == strip_elapsed(in_process)
        assert report["passed"] is False
        # the abort anchor names the innermost frame inside the package
        aborted = report["suites"][4]["anchor"]
        assert aborted.startswith(
            "suite aborted: ValueError: trials must be a positive integer at most 10^6 "
            "(in __post_init__, verify.py:"
        ), aborted


@LINUX_ONLY
def test_a_dead_worker_aborts_only_its_own_row(monkeypatch, tmp_path, capfd):
    def exit_at_once(config, rng, track):
        os._exit(3)

    config = verify.RunConfig(trials=1)
    expected = [verify.suite_row(config, index) for index in range(len(verify.SUITES))]
    plant(monkeypatch, 2, exit_at_once)
    use_cpus(monkeypatch, 2)
    out = tmp_path / "report.json"
    rc = main(["verify", "--trials", "1", "--out", str(out)])
    captured = capfd.readouterr()
    assert multiprocessing.active_children() == []
    assert rc == 1
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == "overall: FAIL"
    rows = json.loads(out.read_text(encoding="utf-8"))["suites"]
    dead = rows.pop(2)
    assert dead["name"] == "midpoint-swap"
    assert dead["anchor"].startswith("suite aborted: BrokenProcessPool: "), dead["anchor"]
    assert dead["max_residual"] is None and dead["passed"] is False and dead["trials"] == 0
    del expected[2]
    assert strip_elapsed(rows) == strip_elapsed(json.loads(jsonio.dumps(expected)))


@LINUX_ONLY
def test_a_worker_dead_before_every_job_is_in_aborts_only_its_own_row(monkeypatch):
    from concurrent.futures import ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    def exit_at_once(config, rng, track):
        os._exit(3)

    # hold every later submission until the first job has ended, which
    # breaks the pool while jobs are still being submitted
    submit, first = ProcessPoolExecutor.submit, []

    def submit_after_the_first_job(pool, *args):
        if first:
            wait(first, timeout=60)
        future = submit(pool, *args)
        if not first:
            first.append(future)
        return future

    config = verify.RunConfig(trials=1)
    expected = [verify.suite_row(config, index) for index in range(len(verify.SUITES))]
    plant(monkeypatch, 0, exit_at_once)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_after_the_first_job)
    report = verify.run_verify(config)
    assert multiprocessing.active_children() == []
    assert isinstance(first[0].exception(), BrokenProcessPool)
    dead, *rows = report["suites"]
    assert dead["anchor"].startswith("suite aborted: BrokenProcessPool: "), dead["anchor"]
    assert dead["max_residual"] is None and report["passed"] is False
    assert strip_elapsed(rows) == strip_elapsed(expected[1:])


def test_demo_runs_every_example(capsys):
    for name in ["0", "1", "2", "4", "5", "6", "siegel", "exterior", "product", "hyperbolic"]:
        rc = main(["demo", name, "--seed", "5"])
        captured = capsys.readouterr()
        assert rc == 0, name
        assert captured.out.strip(), name


def test_demo_hyperbolic_samples_at_the_spec_tolerance(capsys):
    # the sampler accepts at the spec's own eq_tol, so the transport's
    # membership check takes every sample it draws
    assert main(["demo", "hyperbolic", "--tol", "0.9", "--seed", "3"]) == 0
    assert "||L f - z1||" in capsys.readouterr().out


def test_demo_numerical_failure_exits_one_with_an_error_line(capsys):
    rc = main(["demo", "siegel", "--tol", "0.9"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.startswith(
        "error: matrix has an eigenvalue on the closed negative real axis"
    )


def test_demo_rejects_unknown_example():
    with pytest.raises(SystemExit) as exc:
        main(["demo", "3"])
    assert exc.value.code == 2


def test_transit_with_arc_path(tmp_path, capsys):
    dom_file = tmp_path / "dom.json"
    target_file = tmp_path / "target.json"
    path_file = tmp_path / "path.json"
    write_text(dom_file, jsonio.dumps(invertibles_domain_obj()))
    write_text(target_file, jsonio.matrix_dumps(np.array([[-1.0]])))
    arc = [np.array([[np.exp(1j * np.pi * t)]]) for t in np.linspace(0.0, 1.0, 5)]
    write_text(
        path_file, jsonio.dumps({"waypoints": [matrix_obj(p) for p in arc]})
    )
    rc = main(["transit", str(dom_file), str(target_file), str(path_file)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0].startswith("chain with 4 symmetry factors")
    chain_obj = json.loads("\n".join(lines[1:]))
    assert len(chain_obj["factors"]) % 2 == 0
    assert chain_obj["residual"] <= 1e-8
    z = np.array([[1.0 + 0j]])
    for factor in chain_obj["factors"]:
        z = lft_apply(
            LFTMap.from_coefficient_matrix(jsonio.matrix_from_obj(factor["M"]), 1, 1),
            z,
        )
    assert abs(z[0, 0] - (-1.0)) <= 1e-8


def test_transit_writes_chain_file(tmp_path, capsys):
    dom_file = tmp_path / "dom.json"
    target_file = tmp_path / "target.json"
    chain_file = tmp_path / "chain.json"
    write_text(dom_file, jsonio.dumps(whole_space_domain_obj()))
    write_text(target_file, jsonio.matrix_dumps(np.array([[0.5]])))
    rc = main(
        ["transit", str(dom_file), str(target_file), "--out", str(chain_file)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("chain with 2 symmetry factors")
    assert len(captured.out.strip().splitlines()) == 1
    chain_obj = json.loads(chain_file.read_text(encoding="utf-8"))
    z = np.zeros((1, 1), dtype=complex)
    for factor in chain_obj["factors"]:
        z = lft_apply(
            LFTMap.from_coefficient_matrix(jsonio.matrix_from_obj(factor["M"]), 1, 1),
            z,
        )
    assert abs(z[0, 0] - 0.5) <= 1e-10


def test_transit_rejects_non_member_target(tmp_path, capsys):
    dom_file = tmp_path / "dom.json"
    target_file = tmp_path / "target.json"
    write_text(dom_file, jsonio.dumps(invertibles_domain_obj()))
    write_text(target_file, jsonio.matrix_dumps(np.zeros((1, 1))))
    rc = main(["transit", str(dom_file), str(target_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error: the target is not a member of the domain" in captured.err


def test_transit_straight_path_failure(tmp_path, capsys):
    # without a path the straight segment from 1 to -1 crosses 0
    dom_file = tmp_path / "dom.json"
    target_file = tmp_path / "target.json"
    write_text(dom_file, jsonio.dumps(invertibles_domain_obj()))
    write_text(target_file, jsonio.matrix_dumps(np.array([[-1.0]])))
    rc = main(["transit", str(dom_file), str(target_file)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error at waypoint 1:")


def test_transit_to_a_member_whose_lu_fails_is_a_failed_chain(tmp_path, capsys):
    # 1e6 [[1, 2], [2, 4]] is exactly singular, yet its smin clears inv_tol,
    # so it is a member; numpy's LinAlgError once made this an input error
    dom_file = tmp_path / "dom.json"
    target_file = tmp_path / "target.json"
    eye = np.eye(2)
    dom = {"space": "full", "C": matrix_obj(eye), "D": matrix_obj(0 * eye), "Z0": matrix_obj(eye)}
    write_text(dom_file, jsonio.dumps(dom))
    write_text(target_file, jsonio.matrix_dumps(1e6 * np.array([[1.0, 2.0], [2.0, 4.0]])))
    rc = main(["transit", str(dom_file), str(target_file)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == "error: c z + d is singular at the chain target\n"
    assert captured.out == ""


def test_transit_rejects_matrices_above_sixteen(tmp_path, capsys):
    dom_file = tmp_path / "dom.json"
    target_file = tmp_path / "target.json"
    eye = np.eye(17)
    write_text(
        dom_file,
        jsonio.dumps(
            {"space": "full", "C": matrix_obj(eye), "D": matrix_obj(0 * eye), "Z0": matrix_obj(eye)}
        ),
    )
    write_text(target_file, jsonio.matrix_dumps(eye))
    rc = main(["transit", str(dom_file), str(target_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error:" in captured.err and "at most 16" in captured.err

    # a 16 x 16 request is accepted; the 17 x 17 target alone is rejected
    write_text(dom_file, jsonio.dumps(jsonio.domain_to_obj(whole_space_domain(full_space(16, 16)))))
    write_text(target_file, jsonio.matrix_dumps(np.eye(16)))
    assert main(["transit", str(dom_file), str(target_file)]) == 0
    write_text(target_file, jsonio.matrix_dumps(eye))
    assert main(["transit", str(dom_file), str(target_file)]) == 2
    capsys.readouterr()


def test_transit_input_errors(tmp_path, capsys):
    dom_file = tmp_path / "dom.json"
    target_file = tmp_path / "target.json"
    write_text(dom_file, jsonio.dumps(invertibles_domain_obj()))
    write_text(
        target_file, '{"rows": 1, "cols": 1, "re": [[Infinity]], "im": [[0.0]]}'
    )
    rc = main(["transit", str(dom_file), str(target_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error:" in captured.err
    assert "non-finite numeric token" in captured.err

    rc = main(["transit", str(tmp_path / "missing.json"), str(target_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error:" in captured.err

    # an integer beyond the float range is as non-finite as 1e400
    for entry in ("1" * 401, "-" + "9" * 401, "1e400"):
        write_text(target_file, f'{{"rows": 1, "cols": 1, "re": [[{entry}]], "im": [[0.0]]}}')
        rc = main(["transit", str(dom_file), str(target_file)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "input error: field 're' contains non-finite values" in captured.err

    write_text(target_file, "[" * 200_000 + "]" * 200_000)
    rc = main(["transit", str(dom_file), str(target_file)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "input error: JSON nesting is too deep to parse" in captured.err
