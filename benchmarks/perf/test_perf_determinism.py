"""The benchmark's inputs and counters depend on ``--seed`` and nothing else."""

from __future__ import annotations

import os

import pytest

import workloads

NAMES = ["fit_exact_1t", "fit_blocked_mt", "serve_exact_uniform", "serve_rw_zipf"]


def _digest(name: str, seed: int) -> str:
    spec = workloads.workload(name, smoke=True, cpus=os.cpu_count() or 1)
    if spec.kind == "fit":
        return workloads.digest(workloads.fit_inputs(spec, seed))
    n_ops = workloads.measured_ops(spec, seconds=0)
    return workloads.digest(workloads.serve_inputs(spec, seed, n_ops))


@pytest.mark.parametrize("name", NAMES)
def test_inputs_hash_by_seed(name, smoke_run):
    """Graph arrays, node sequence, read/write mask and upsert payloads."""
    assert _digest(name, 1) == _digest(name, 1)
    assert _digest(name, 1) != _digest(name, 2)
    # ... and the run itself fed the program exactly those inputs.
    _, records = smoke_run(False)
    record = next(r for r in records if r["workload"] == name)
    assert record["detail"]["inputs_sha256"] == _digest(name, 1)


def test_counters_repeat_exactly_across_two_runs(smoke_run):
    def values(trace, repeat):
        _, records = smoke_run(trace, repeat)
        return {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
                for r in records}

    first, second = values(False, 0), values(False, 1)
    for name in NAMES:
        assert first[name]["quality"] == second[name]["quality"], name
    first, second = values(True, 0), values(True, 1)
    for name in ("fit_exact_1t", "fit_blocked_mt"):
        assert first[name]["ccd.sweeps"] == second[name]["ccd.sweeps"]
    assert first["fit_exact_1t"]["ccd.objective"] == second["fit_exact_1t"]["ccd.objective"]
    assert (first["serve_rw_zipf"]["wal.bytes_per_upsert"]
            == second["serve_rw_zipf"]["wal.bytes_per_upsert"] > 0)
    assert (first["serve_exact_uniform"]["service.cache_hit_ratio"]
            == second["serve_exact_uniform"]["service.cache_hit_ratio"])
