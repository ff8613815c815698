"""The public surface and the benchmark's traced spans resolve.

``bench/spans.py`` wraps every span that ``BENCHMARK.json`` names, so a
deleted or renamed function would otherwise first fail in a traced
benchmark run.
"""

import importlib
import json
from pathlib import Path

import optiplanar

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_public_name_resolves():
    assert [n for n in optiplanar.__all__ if not hasattr(optiplanar, n)] == []


def test_every_traced_span_resolves():
    spans = [m["name"][:-len(".calls")] for m in SPEC["per_layer"]
             if m["name"].endswith(".calls")]
    assert spans
    missing = []
    for span in spans:
        module, attr = span.split(".")
        if not hasattr(importlib.import_module(f"optiplanar.{module}"),
                       attr):
            missing.append(span)
    assert missing == []
