"""Seeded end-to-end benchmark for lightsum.

    python3 benchmarks/run.py --workload solve-dense --seed 1 --seconds 25 --trace 0

Run from the root of a source tree: the program is imported from ./src, and
scratch files go to ./.bench_out. One run is one process and one workload, a
closed loop with a single client: the next operation starts when the previous
one has ended. Each operation is one call of `lightsum.cli.main(argv)`. Set-up
times cold interpreter starts, then a run repeats whole rounds of its
workload's operations until it has measured for --seconds and timed at least
MIN_OPS operations, checks every output, and prints one JSON object as the
last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the same
loop runs with the tracer installed and the metrics are the per-layer ones.
An operation fails when the program produces no report; `correct` is false
when a report is wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Enough timed operations that ten or more lie beyond the 90th percentile.
MIN_OPS = 100
# Cold interpreter starts per run for setup_s; one more runs first, untimed,
# so the bytecode and file caches are warm as they are for a user.
COLD_STARTS = 7
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import lightsum.cli; "
    "print(time.perf_counter() - t)"
)


def cold_starts(count: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing lightsum.cli, and
    the median of the import alone as the child measures it."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    walls, imports = [], []
    for i in range(count + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        wall = time.perf_counter() - start
        if i:
            walls.append(wall)
            imports.append(float(proc.stdout))
    return statistics.median(walls), statistics.median(imports)


def import_program():
    sys.path.insert(0, str(SRC))
    import lightsum.cli

    if Path(lightsum.cli.__file__).resolve().parent != SRC / "lightsum":
        raise ImportError(f"lightsum was imported from {lightsum.cli.__file__}, not {SRC}")
    return lightsum.cli.main


def in_process(main, argv: tuple[str, ...]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


class Outcomes:
    """Tally of operations that gave no report, and of reports that are wrong."""

    def __init__(self) -> None:
        self.failed = 0
        self.wrong: list[str] = []

    def judge(self, op: workloads.Op, run, latencies: list[float]) -> None:
        """Run op, append its time to latencies, then check what it returned."""
        try:
            start = time.perf_counter()
            try:
                code, stdout = run(op.argv)
            finally:
                latencies.append(time.perf_counter() - start)
            report = json.loads(stdout)
            if not isinstance(report, dict):
                raise ValueError("report is not a JSON object")
        except (Exception, SystemExit) as exc:  # the program gave no report
            self.failed += 1
            print(f"failed: {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
            return
        try:
            op.check(code, report)
        except (checks.CheckFailed, KeyError, TypeError, ValueError) as exc:
            self.wrong.append(f"{' '.join(op.argv)}: {exc!r}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS) -> dict:
    setup_s, import_s = cold_starts(COLD_STARTS)
    main = import_program()
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer()
    try:
        load = workloads.build(name, seed, workdir)
        run = partial(in_process, main)
        run(load.round[0].argv)  # warm-up, untimed
        if trace:
            tracer.install()

        outcomes, latencies = Outcomes(), []
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds or len(latencies) < min_ops:
            for op in load.round:
                tracer.op = len(latencies)
                outcomes.judge(op, run, latencies)
        # ru_maxrss is in KiB
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        tracer.uninstall()
        for op in load.samples:
            outcomes.judge(op, run, [])
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        tracer.write(OUT / "trace" / f"{name}-seed{seed}.json")
        values = tracer.metrics(len(latencies), statistics.fmean(latencies), import_s)
        units = tracing.METRICS
    else:
        values = {
            "setup_s": setup_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    for line in outcomes.wrong[:10]:
        print(f"wrong: {line}", file=sys.stderr)
    return {
        "correct": not outcomes.wrong,
        "attempted": len(latencies),
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lightsum" / "cli.py").is_file():
        print(f"error: no lightsum source under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
