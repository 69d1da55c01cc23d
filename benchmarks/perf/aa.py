#!/usr/bin/env python3
"""A/A noise gate: two sets of runs of the *same* code must agree.

    python benchmarks/perf/aa.py [--runs N] [--workload NAME] [--md FILE]

Mirrors what the driver does to accept the benchmark: every workload is
run ``N`` times per set (default 10), each run in a fresh process, run
``i`` of either set with ``--seed i``, set A and set B interleaved run by
run so slow host drift lands on both (one workload's twenty runs take
about nine minutes).  For each workload x end-to-end metric it prints the
two medians, their quartiles, the spread of each set (distance between
the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) and how much worse set
B's median is than set A's.  A breach is a spread above the metric's
bound (``setup_s`` excepted) or a B median worse than A's by more than
the bound; any breach makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 180


def one_run(workload: str, seed: int) -> dict[str, float]:
    """End-to-end metrics of one fresh-process run (raises if it failed)."""
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
        cwd=HERE.parents[1], capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-300:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect or failed ops: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--md", type=Path, help="also write the report here")
    parser.add_argument("--raw", type=Path, help="write every run's values as JSON")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in BENCHMARK["workloads"]]

    started = time.time()
    values = {name: {"A": [], "B": []} for name in names}
    for name in names:
        for i in range(args.runs):
            # Run i of both sets gets seed i + 1, so the sets see the same
            # inputs (quality must agree exactly); alternate which goes first.
            seed = 1 + i
            for side in ("AB", "BA")[i % 2]:
                values[name][side].append(one_run(name, seed))
                print(f"[{time.time() - started:6.0f}s] {name} set {side} "
                      f"run {i + 1}/{args.runs} seed {seed}", file=sys.stderr)
    if args.raw:
        args.raw.write_text(json.dumps(values, indent=1))

    lines = [
        f"A/A result: {args.runs} runs per set, {BENCHMARK['run_seconds']} s each, "
        f"sets interleaved, a fresh process per run, seed i for run i of either set.",
        "",
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | "
        "spread B | B worse by | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    breaches = 0
    for name in names:
        for metric in BENCHMARK["end_to_end"]:
            a = spread([run[metric["name"]] for run in values[name]["A"]])
            b = spread([run[metric["name"]] for run in values[name]["B"]])
            worse = (b[1] - a[1]) / a[1] * (1 if metric["better"] == "lower" else -1)
            gated_spread = metric["name"] != "setup_s"
            breach = worse > metric["bound"] or (
                gated_spread and max(a[3], b[3]) > metric["bound"])
            breaches += breach
            lines.append(
                f"| {name} | {metric['name']} ({metric['unit']}) "
                f"| {a[1]:.4g} [{a[0]:.4g}, {a[2]:.4g}] "
                f"| {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] "
                f"| {a[3]:.2%} | {b[3]:.2%} | {worse:+.2%} | {metric['bound']:.1%} "
                f"| {'BREACH' if breach else 'ok'} |")
    lines += ["", f"{breaches} breach(es); wall {time.time() - started:.0f} s."]
    text = "\n".join(lines)
    print(text)
    if args.md:
        args.md.write_text(text + "\n")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
