"""Benchmark of lftdom, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the workload's inputs from the seed, runs a fixed number of
rounds of operations (the number follows from --seconds and the workload's
nominal round time, never from the measured speed) as timed blocks,
checks every output, and prints one JSON object as its last line of
standard output. Times are scaled to the reference host speed
(hostspeed.py). With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run repeats the timed phase under the span tracer and
reports per-layer ones.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# lftdom's matrices are at most 16x16. With more than one thread, OpenBLAS
# keeps a worker spinning on the second core, which made the timings of
# this 2-core machine noisier; the benchmark runs BLAS on one thread. Set
# before lftdom, and with it numpy, is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-default", "transit-mixed", "point-eval"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def timed_phase(workload, speed, tracer=None):
    """Run every block and check its outputs after it.

    Returns the blocks' wall seconds at the reference host speed and as
    measured, the latencies of the completed operations at the reference
    speed, the attempted and failed counts and the check errors.
    """
    wall = raw = 0.0
    latencies = []
    attempted = failed = 0
    errors = []
    before = speed.sample(workload.block_s)
    for b in range(workload.blocks):
        gc.collect()
        if tracer is not None:
            tracer.install()
        t0 = clock()
        records = workload.run_block(b)
        elapsed = clock() - t0
        if tracer is not None:
            tracer.uninstall()
        after = speed.sample(workload.block_s)
        scale = speed.scale(before, after)
        before = after
        wall += elapsed * scale
        raw += elapsed
        for latency, _ in records:
            attempted += 1
            if latency is None:
                failed += 1
            else:
                latencies.append(latency * scale)
        errors += workload.check_block(b, records)
    return wall, raw, latencies, attempted, failed, errors


def import_seconds(speed):
    """Median over fresh interpreters of the time to import lftdom.cli."""
    code = "import time; t = time.perf_counter(); import lftdom.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, check=True, timeout=120)
        times.append(float(child.stdout) * speed.scale(before, speed.sample()))
    return statistics.median(times)


def quantile(values, q):
    """Linear-interpolated quantile, as numpy's default."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lftdom", "__init__.py")):
        print(f"error: no lftdom sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lftdom.cli
    if not os.path.abspath(lftdom.cli.__file__).startswith(SRC + os.sep):
        print(f"error: lftdom imported from {lftdom.cli.__file__}", file=sys.stderr)
        return 2

    import tracer as tracing
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, VerifyDefault

    speed = HostSpeed()
    import_s = import_seconds(speed)
    cls = WORKLOADS[args.workload]
    rounds = max(1, int(args.seconds // cls.round_s))
    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            before = speed.sample()
            t0 = clock()
            workload = cls(args.seed, workdir, rounds)
            workload.warm_up()
            elapsed = clock() - t0
            setups.append(elapsed * speed.scale(before, speed.sample()))
        gc.collect()
        gc.freeze()
        wall, raw, latencies, attempted, failed, errors = timed_phase(workload, speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"timed phase: {raw:.4f} s as measured, {wall:.4f} s at the reference "
              f"host speed", file=sys.stderr)
        if not latencies:
            print("error: no operation completed", file=sys.stderr)
            return 1
        if args.trace:
            errors += tracing.self_check()
            suites = workload.suite_seconds() if isinstance(workload, VerifyDefault) else {}
            tracer = tracing.Tracer()
            traced_wall, _, _, _, _, traced_errors = timed_phase(workload, speed, tracer)
            errors += traced_errors
            values = tracer.metrics()
            for suite in tracing.VERIFY_SUITES:
                values[f"verify.{suite}.s"] = suites.get(suite, 0.0)
            values["trace.overhead_s"] = traced_wall - wall
            tracer.save(os.path.join(outdir, f"spans-{args.workload}.npz"))
            units = tracing.metric_units()
        else:
            values = {
                "setup_s": import_s + statistics.median(setups),
                "wall_s": wall,
                "ops_per_s": len(latencies) / wall,
                "op_p50_ms": 1e3 * quantile(latencies, 0.5),
                "op_p90_ms": 1e3 * quantile(latencies, 0.9),
                "peak_rss_mb": peak_rss_mb,
            }
            units = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                     "op_p90_ms": "ms", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
