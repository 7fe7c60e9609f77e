"""Accuracy sweep: a default ``lftdom verify`` at each of the fixed seeds 0-39, as one JSON.

Run from the root of a checkout:

    python3 tools/sweep.py [--out SWEEP.json]

The JSON holds, per seed and verify row, ``passed``, ``max_residual`` and
``trials``; and per row the seeds where it fails and its worst
``max_residual`` with that seed. It leaves out the elapsed times, so one tree
gives the same bytes on every run. Rows carry no bounds, so the ratio of
residual to bound is not reported. The exit code is 1 if any seed fails, as
``lftdom verify``'s is, and 0 otherwise.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lftdom.verify import RunConfig, run_verify  # noqa: E402

SEEDS = range(40)
FIELDS = ("name", "passed", "max_residual", "trials")


def seed_rows(seed):
    """The rows of a default verify at seed, each with FIELDS only."""
    report = run_verify(RunConfig(seed=seed))
    return [{key: row[key] for key in FIELDS} for row in report["suites"]]


def sweep(seeds=SEEDS):
    """The sweep's JSON object over seeds."""
    runs = [{"seed": seed, "rows": seed_rows(seed)} for seed in seeds]
    summary = []
    for i, name in enumerate(row["name"] for row in runs[0]["rows"]):
        rows = [(run["seed"], run["rows"][i]) for run in runs]
        finite = [(row["max_residual"], seed) for seed, row in rows if row["max_residual"] is not None]
        # the first seed wins a tie
        worst, worst_seed = max(finite, key=lambda item: item[0], default=(None, None))
        summary.append({
            "name": name,
            "failing_seeds": [seed for seed, row in rows if not row["passed"]],
            "worst_max_residual": worst,
            "worst_seed": worst_seed,
        })
    return {
        "seeds": list(seeds),
        "runs": runs,
        "rows": summary,
        "passed": all(row["passed"] for run in runs for row in run["rows"]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the JSON to this file instead of standard output")
    args = parser.parse_args(argv)
    result = sweep()
    text = json.dumps(result, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    for row in result["rows"]:
        if row["failing_seeds"]:
            print(f"FAIL  {row['name']} at seeds {row['failing_seeds']}", file=sys.stderr)
    return 0 if result["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
