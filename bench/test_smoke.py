"""Smoke test of the benchmark at tiny sizes.

Run from the root of a checkout with ``python -m pytest bench``.  Every
workload runs once untraced and once traced with ``--smoke``; the test
asserts that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit, that no operation failed, and that the traces of
the three workloads together record every span name.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SPANS = [m["name"][:-len(".calls")] for m in SPEC["per_layer"]
         if m["name"].endswith(".calls")]


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def traces():
    return {w: run(w, 1)[1] for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_errors(workload):
    lines, result = run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert "error_rate 0.000000 ratio" in lines
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traces_cover_every_layer(traces):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traces.values():
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name in SPANS:
        assert any(r["metrics"][f"{name}.calls"]["value"] > 0
                   for r in traces.values()), name
