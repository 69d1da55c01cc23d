"""Tier-1 smoke test: the benchmark runs, prints what BENCHMARK.json
declares, and leaves nothing behind.  Sizes are tiny and no timing is
asserted, so a loaded host cannot fail it."""

from __future__ import annotations

import json
import math
import os
import re
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["command"][-1] == "benchmarks/perf/run.py"
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    setup = {m["name"]: m for m in BENCHMARK["end_to_end"]}["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_declared_metric_is_printed_once_per_workload(smoke_run, trace):
    stdout, records = smoke_run(trace)
    declared = {m["name"]: m["unit"]
                for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert [r["workload"] for r in records] == workloads

    # The human-readable table: "<workload> <metric> <value> <unit>".
    printed: dict[str, list[tuple[str, float, str]]] = {w: [] for w in workloads}
    results = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
            continue
        workload, metric, value, unit = line.split()
        printed[workload].append((metric, float(value), unit))
    for workload in workloads:
        assert sorted(m for m, _, _ in printed[workload]) == sorted(declared)
        for metric, value, unit in printed[workload]:
            assert math.isfinite(value) and unit == declared[metric]

    # The machine-readable line the driver parses, one per workload.
    assert len(results) == len(workloads)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert isinstance(result["attempted"], int) and result["attempted"] >= 1
        assert set(result["metrics"]) == set(declared)
        for metric, entry in result["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert math.isfinite(entry["value"]) and entry["unit"] == declared[metric]
        if not trace:
            assert all(entry["value"] != 0 for entry in result["metrics"].values())


def test_nothing_is_left_behind(smoke_run):
    for trace in (False, True):
        _, records = smoke_run(trace)
        for record in records:
            pid = record["detail"].get("server_pid")
            if pid is not None:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
    leftovers = list((ROOT / ".perf_tmp").glob("*")) if (ROOT / ".perf_tmp").exists() else []
    assert leftovers == []


def test_layer_spans_nest_and_add_up(smoke_run):
    _, records = smoke_run(True)
    layer = {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
             for r in records}
    for name in ("serve_exact_uniform", "serve_rw_zipf"):
        m = layer[name]
        assert m["server.handle_ms"] > 0 and m["knn.exact_top_k_ms"] > 0
        assert m["index.search_ms"] >= m["knn.exact_top_k_ms"]
        assert 0 <= m["service.cache_hit_ratio"] <= 1
    for name in ("fit_exact_1t", "fit_blocked_mt"):
        m = layer[name]
        assert m["affinity.share"] + m["init.share"] + m["ccd.share"] == pytest.approx(1.0)
        assert m["ccd.sweeps"] == 6 and m["server.handle_ms"] == 0
    assert layer["serve_rw_zipf"]["wal.fsyncs"] > 0
    assert layer["serve_exact_uniform"]["wal.fsyncs"] == 0
