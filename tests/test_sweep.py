"""The accuracy sweep script over verify seeds."""

import importlib.util
import json
from pathlib import Path

from lftdom.verify import RunConfig, run_verify

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_at_one_seed_is_verify_without_elapsed():
    sweep = load_sweep()
    assert list(sweep.SEEDS) == list(range(40))
    result = sweep.sweep([0])
    rows = run_verify(RunConfig(seed=0))["suites"]
    assert result["runs"] == [
        {"seed": 0, "rows": [{key: row[key] for key in sweep.FIELDS} for row in rows]}
    ]
    assert result["passed"] is all(row["passed"] for row in rows)
    assert [row["name"] for row in result["rows"]] == [row["name"] for row in rows]
    for summary, row in zip(result["rows"], rows):
        assert summary["failing_seeds"] == ([] if row["passed"] else [0])
        assert summary["worst_max_residual"] == row["max_residual"]
        assert summary["worst_seed"] == (None if row["max_residual"] is None else 0)


def test_sweep_reproduces_the_committed_runs_at_three_seeds():
    # seed 0 passes and seeds 3 and 37 fail chain-transitivity: the stream
    # and the bits of every row, against the committed sweep
    committed = json.loads((ROOT / "SWEEP_39.json").read_text(encoding="utf-8"))
    seeds = [0, 3, 37]
    want = [run for run in committed["runs"] if run["seed"] in seeds]
    assert load_sweep().sweep(seeds)["runs"] == want
