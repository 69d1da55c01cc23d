#!/usr/bin/env python3
"""The repo's one performance benchmark: four workloads, seven gated metrics.

    python benchmarks/perf/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--smoke] [--out FILE]

Runs from any directory with only numpy and scipy installed.  Without
``--workload`` all four run in turn.  With tracing off (the default) a run
reports the end-to-end metrics of BENCHMARK.json; ``--trace`` is a
separate, shorter run that reports the per-layer metrics instead.  Every
metric is printed by name with its unit, and the last line of each
workload's output is one JSON object::

    {"correct": true, "attempted": 3450, "failed": 0, "metrics": {...}}

A failed correctness check sets ``correct`` to false, prints a one-line
reason on stderr and makes the exit code 1.  See README.md.
"""

from __future__ import annotations

import os

# Before numpy is imported, here and (through the inherited environment) in
# every server this process spawns: one BLAS thread, so the only
# parallelism is the program's own.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import atexit
import json
import math
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))

import e2e  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

#: The contract: workload names, metric names and units all come from here.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TMP_DIR = ROOT / ".perf_tmp"
OUT_DIR = ROOT / ".perf_out"


def run_workload(name: str, scratch: e2e.Scratch, *, seed: int, seconds: float,
                 trace: bool, smoke: bool) -> dict:
    """One run of one workload; returns its record (see ``--out``)."""
    spec = workloads.workload(name, smoke=smoke, cpus=os.cpu_count() or 1)
    n_ops = workloads.measured_ops(spec, seconds)
    repeats = 1 if smoke or trace else e2e.SETUP_REPEATS
    if trace:
        # The traced run still needs client-side figures (tails, cache hit
        # ratio, the untraced p50 its overhead is measured against), so a
        # shorter untraced phase runs first (never shorter than the op
        # stream the traced phase replays).
        floor = min(n_ops, 4) if spec.kind == "fit" else spec.trace_ops
        n_ops = max(floor, n_ops // 3)
    started = time.perf_counter()
    if spec.kind == "fit":
        result, inputs = e2e.run_fit(spec, seed, n_ops, repeats)
    else:
        result, inputs = e2e.run_serve(scratch, spec, seed, n_ops, repeats)
    metrics, declared = result.end_to_end, BENCHMARK["end_to_end"]
    if trace and result.correct:
        spans = SpanRecorder()
        try:
            if spec.kind == "fit":
                metrics = layers.trace_fit(spec, inputs, seed, spans, result)
            else:
                metrics = layers.trace_serve(scratch, spec, inputs, seed, spans, result)
        finally:
            spans.dump(OUT_DIR / f"trace-{name}.json")
        declared = BENCHMARK["per_layer"]
        unknown = set(metrics) - {m["name"] for m in declared}
        if unknown:
            result.fail(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
        # A layer this workload never enters was busy for 0 ms, 0 times.
        metrics = {m["name"]: metrics.get(m["name"], 0.0) for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    if result.correct:
        for metric in units:
            value = metrics.get(metric)
            if value is None or not math.isfinite(value):
                result.fail(f"metric {metric} has no finite value ({value!r})")
    return {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "correct": result.correct,
        "reason": result.reason,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit in units.items() if metric in metrics
        },
        "wall_s": time.perf_counter() - started,
        "detail": result.detail,
    }


def report(record: dict) -> None:
    """Every metric by name with its unit, then the one-line JSON result."""
    for metric, entry in record["metrics"].items():
        print(f"{record['workload']:<20} {metric:<28} "
              f"{entry['value']:>16.6f} {entry['unit']}")
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="length of the measured phase on the reference host")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1,
                        default=0, help="report per-layer metrics from a traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fixed sizes (tier-1 test); ignores --seconds")
    parser.add_argument("--out", type=Path, help="also write every record as JSON")
    args = parser.parse_args(argv)

    scratch = e2e.Scratch(TMP_DIR / f"run-{os.getpid()}")
    atexit.register(scratch.close)
    # SIGTERM unwinds through the finally blocks instead of killing us
    # with servers still running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = [args.workload] if args.workload else WORKLOADS
    records = []
    try:
        for name in names:
            record = run_workload(name, scratch, seed=args.seed,
                                  seconds=args.seconds, trace=bool(args.trace),
                                  smoke=args.smoke)
            records.append(record)
            report(record)
            if not record["correct"]:
                print(f"FAILED {record['reason']}", file=sys.stderr)
    finally:
        scratch.close()
        if TMP_DIR.is_dir() and not any(TMP_DIR.iterdir()):
            TMP_DIR.rmdir()
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(json.dumps(records, indent=1))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
