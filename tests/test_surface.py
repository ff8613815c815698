"""The public surface and the benchmark's traced spans resolve, and
deletions leave nothing behind.

``bench/spans.py`` wraps every span that ``BENCHMARK.json`` names, so a
deleted or renamed function would otherwise first fail in a traced
benchmark run.  The source checks catch an import or a private helper
that outlives its last use.
"""

import ast
import importlib
import json
from pathlib import Path

import optiplanar

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
