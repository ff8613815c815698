"""The public surface and the benchmark's traced spans resolve, and
deletions leave nothing behind.

``bench/spans.py`` wraps every span that ``BENCHMARK.json`` names, so a
deleted or renamed function would otherwise first fail in a traced
benchmark run.  It wraps a function by rebinding every ``optiplanar.*``
module global that is the function, so a call that bypasses those
bindings (through a table of functions built at import, say) records no
span; the call counts here fail first.  The source checks catch an
import or a private helper that outlives its last use.
"""

import ast
import functools
import importlib
import json
import sys
from pathlib import Path

import pytest

import optiplanar
from optiplanar import (
    generate_optimal,
    remove_base_edge,
    save_drawing,
    skeleton_edge_ids,
    theta_hexangulation,
    theta_pentagulation,
)
from optiplanar.cli import main

SRC = Path(optiplanar.__file__).resolve().parent
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


def parsed_modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def loaded_names(tree):
    """The bare names a module reads, and the entries of its ``__all__``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            out.update(ast.literal_eval(node.value))
    return out


def test_every_imported_name_is_used():
    unused = []
    for name, tree in parsed_modules().items():
        used = loaded_names(tree)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{name}: {bound}")
    assert unused == []


def test_every_private_module_name_is_referenced():
    modules = parsed_modules()
    references = set()
    for tree in modules.values():
        references |= loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                references.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                references.update(alias.name for alias in node.names)
    orphans = []
    for name, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [f"{name}: {d}" for d in defined
                        if d.startswith("_") and not d.startswith("__")
                        and d not in references]
    assert orphans == []


def count_calls(monkeypatch, span):
    """Wrap the function a span names as the benchmark's tracer does:
    rebind every ``optiplanar.*`` module global that is the function.
    Returns the list that collects one entry per call."""
    module, attr = span.split(".")
    fn = getattr(importlib.import_module(f"optiplanar.{module}"), attr)
    calls = []

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls.append(span)
        return fn(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key == "optiplanar" or key.startswith("optiplanar."):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("k, skeleton, span", [
    (2, theta_pentagulation(4), "generate.insert_pentagram"),
    (3, theta_hexangulation(3), "generate.insert_hexagon_pattern")])
def test_generation_reaches_the_traced_insertion(k, skeleton, span,
                                                 monkeypatch):
    calls = count_calls(monkeypatch, span)
    generate_optimal(k, skeleton)
    assert len(calls) == skeleton.f


@pytest.mark.parametrize("k", [2, 3])
def test_verify_and_analyze_reach_the_traced_checks(k, monkeypatch,
                                                    tmp_path, capsys):
    calls = count_calls(monkeypatch, f"characterize.check_optimal_{k}planar")
    path = str(tmp_path / "d.json")
    assert main(["generate", "--class", f"{k}opt",
                 "--skeleton", "theta:2", "-o", path]) == 0
    assert main(["verify", "--class", f"{k}opt", path]) == 0
    assert len(calls) == 1
    assert main(["analyze", path]) == 0
    assert len(calls) == 2
    capsys.readouterr()


def test_barvis_reaches_the_traced_layout_spans(monkeypatch, tmp_path,
                                                capsys):
    spans = ("visibility.extend_to_bar1", "visibility.st_number",
             "visibility.verify_bar1")
    calls = {span: count_calls(monkeypatch, span) for span in spans}
    path = str(tmp_path / "d.json")
    assert main(["generate", "--class", "2opt",
                 "--skeleton", "dodecahedron", "-o", path]) == 0
    assert main(["barvis", path]) == 0
    assert {span: len(c) for span, c in calls.items()} == \
        dict.fromkeys(spans, 1)
    capsys.readouterr()


def test_verify_reaches_the_traced_region_rule(monkeypatch, tmp_path,
                                               capsys):
    # the only document of the benchmark's smoke scale that calls this
    # span is theta3 p=1 without a skeleton edge; tier-1 runs no bench
    base = generate_optimal(3, theta_hexangulation(1))
    path = tmp_path / "d.json"
    save_drawing(remove_base_edge(base, min(skeleton_edge_ids(base))), path)
    calls = count_calls(monkeypatch, "plane.curve_is_contractible")
    assert main(["verify", "--class", "3opt", str(path)]) == 1
    assert len(calls) == 7
    capsys.readouterr()
