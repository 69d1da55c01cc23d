"""Committed ``BENCH_*.json`` records must carry the schema their writer emits.

ROADMAP item 6a: a record whose ``meta.schema`` lags the script that
writes it describes cells the code no longer produces.  The writer's
schema is read from the script *source*, so nothing is benchmarked here.
"""

import json
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SCHEMA_LITERAL = re.compile(r'"schema":\s*"(bench_\w+/v\d+)"')


def _writer_schema(name: str) -> str:
    source = (_ROOT / "benchmarks" / f"bench_{name}.py").read_text()
    literals = _SCHEMA_LITERAL.findall(source)
    assert len(literals) == 1, f"bench_{name}.py: expected one schema literal, {literals}"
    return literals[0]


@pytest.mark.parametrize(
    "name",
    [
        "kernels",
        "serving",
        pytest.param(
            "http",
            marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP 6a: BENCH_http.json is still the v2 full run, "
                "bench_http.py writes v4 — regenerate on the reference host",
            ),
        ),
    ],
)
def test_committed_record_matches_writer_schema(name):
    record = json.loads((_ROOT / f"BENCH_{name}.json").read_text())
    assert record["meta"]["schema"] == _writer_schema(name)
