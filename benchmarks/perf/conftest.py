"""Shared fixture: smoke-size runs of ``run.py``, cached for the session."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"


@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    """``smoke_run(trace, repeat=0, seed=1) -> (stdout, records)``.

    Each distinct argument tuple is one fresh ``run.py --smoke`` process
    over all four workloads, started from an unrelated working directory.
    """
    cache: dict[tuple, tuple[str, list[dict]]] = {}

    def run(trace: bool, repeat: int = 0, seed: int = 1):
        key = (trace, repeat, seed)
        if key not in cache:
            cwd = tmp_path_factory.mktemp("perf-smoke")
            out = cwd / "records.json"
            done = subprocess.run(
                [sys.executable, str(RUN), "--smoke", "--seed", str(seed),
                 "--trace", str(int(trace)), "--out", str(out)],
                cwd=cwd, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr[-2000:]
            cache[key] = (done.stdout, json.loads(out.read_text()))
        return cache[key]

    return run
