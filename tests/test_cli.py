"""End-to-end tests of the command line interface.

Everything runs in-process through main(argv) so exit codes and output
can be asserted directly.  Exit code contract: 0 success, 1 failed
verdict, 2 usage errors (argparse), 3 I/O or validation errors.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optiplanar
from optiplanar import (
    Drawing,
    PlaneMultigraph,
    dodecahedron,
    dumps_drawing,
    save_drawing,
)
from optiplanar.cli import build_parser, main


def skeleton_file(tmp_path, plane, name="skeleton.json"):
    """Store a crossing-free drawing wrapping the given plane graph."""
    edges = sorted(plane.edges, key=min)
    base = {}
    paths = {}
    for i, e in enumerate(edges):
        dart = min(e)
        base[i] = (plane.origin(dart), plane.head(dart))
        paths[i] = (dart,)
    path = tmp_path / name
    save_drawing(Drawing(plane, (), base, paths), path)
    return path


@pytest.fixture
def dodeca_file(tmp_path):
    out = tmp_path / "dodeca.json"
    assert main(["generate", "--class", "2opt",
                 "--skeleton", "dodecahedron", "-o", str(out)]) == 0
    return out


@pytest.fixture
def hex_file(tmp_path):
    out = tmp_path / "hex.json"
    assert main(["generate", "--class", "3opt",
                 "--skeleton", "theta:3", "-o", str(out)]) == 0
    return out


def test_generate_writes_a_loadable_document(dodeca_file):
    doc = json.loads(dodeca_file.read_text())
    assert doc["format_version"] == 1
    assert doc["metadata"]["generator"] == {"class": "2opt",
                                            "skeleton": "dodecahedron"}


def test_generate_records_missing_middle(tmp_path):
    out = tmp_path / "mm.json"
    assert main(["generate", "--class", "3opt", "--skeleton", "theta:2",
                 "--missing-middle", "1", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["metadata"]["generator"]["missing_middle"] == 1


def test_verify_passes_matching_class(dodeca_file, hex_file, capsys):
    assert main(["verify", "--class", "2opt", str(dodeca_file)]) == 0
    assert "optimal 2-planar (n=20, m=90)" in capsys.readouterr().out
    assert main(["verify", "--class", "3opt", str(hex_file)]) == 0
    assert main(["verify", "--class", "3opt", "--mode", "count",
                 str(hex_file)]) == 0


def test_verify_fails_wrong_class(dodeca_file, capsys):
    assert main(["verify", "--class", "3opt", str(dodeca_file)]) == 1
    out = capsys.readouterr().out
    assert "NOT optimal 3-planar" in out
    assert "FAIL density: m = 90, bound = 99" in out


def test_verify_multiple_inputs_all_must_pass(dodeca_file, hex_file,
                                              tmp_path, capsys):
    second = tmp_path / "second.json"
    assert main(["generate", "--class", "2opt", "--skeleton", "theta:4",
                 "-o", str(second)]) == 0
    assert main(["verify", "--class", "2opt",
                 str(dodeca_file), str(second)]) == 0
    assert main(["verify", "--class", "2opt",
                 str(dodeca_file), str(hex_file)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert any("NOT optimal 2-planar" in line for line in out)


def test_generate_to_stdout_verify_from_stdin(capsys, monkeypatch):
    assert main(["generate", "--class", "2opt",
                 "--skeleton", "theta:2"]) == 0
    text = capsys.readouterr().out
    assert json.loads(text)["format_version"] == 1
    monkeypatch.setattr("sys.stdin",
                        io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8"))
    assert main(["verify", "--class", "2opt", "-"]) == 0
    assert "-: optimal 2-planar" in capsys.readouterr().out


def test_generate_from_skeleton_file(tmp_path, capsys):
    sk = skeleton_file(tmp_path, dodecahedron())
    out = tmp_path / "drawing.json"
    assert main(["generate", "--class", "2opt",
                 "--skeleton", f"file:{sk}", "-o", str(out)]) == 0
    assert main(["verify", "--class", "2opt", str(out)]) == 0


def test_skeleton_file_with_crossings_is_refused(dodeca_file, tmp_path,
                                                 capsys):
    assert main(["generate", "--class", "2opt",
                 "--skeleton", f"file:{dodeca_file}"]) == 3
    assert "crossing-free" in capsys.readouterr().err


def test_analyze_output(dodeca_file, capsys):
    assert main(["analyze", str(dodeca_file)]) == 0
    out = capsys.readouterr().out
    for line in ("vertices: 20",
                 "edges: 90",
                 "crossings: 60",
                 "crossing histogram: 0:30 2:60",
                 "simple: yes",
                 "fan-planar: yes",
                 "skeleton: n=20 m=30 f=12 connected=yes face-lengths=[5]",
                 "density: 2-planar bound 90 (slack 0), "
                 "3-planar bound 99 (slack -9)",
                 "optimal: 2-planar yes, 3-planar no"):
        assert line in out


def test_barvis_on_the_dodecahedron(dodeca_file, tmp_path, capsys):
    svg = tmp_path / "bars.svg"
    assert main(["barvis", str(dodeca_file), "--svg", str(svg)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == \
        "bars: 20  segments: 90  max bars crossed by a segment: 1"
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == \
        "fcac33a275042c9175a90291c6c9b0fbeb73ae130b7d20c2f3d3d9db746e5e52"


def test_barvis_refuses_nonsimple_input(hex_file, capsys):
    assert main(["barvis", str(hex_file)]) == 1
    assert "needs a simple graph" in capsys.readouterr().err


def test_export_formats(dodeca_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    assert main(["export", "--format", "svg", str(dodeca_file),
                 "-o", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")
    assert main(["export", "--format", "dot", str(dodeca_file)]) == 0
    assert capsys.readouterr().out.startswith("graph drawing {")


def test_usage_errors_exit_2(capsys):
    for argv in (["generate", "--class", "4opt", "--skeleton", "theta:2"],
                 ["verify", "input.json"],
                 ["frobnicate"],
                 []):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        capsys.readouterr()


def test_io_errors_exit_3(tmp_path, capsys):
    assert main(["verify", "--class", "2opt",
                 str(tmp_path / "absent.json")]) == 3
    assert "error:" in capsys.readouterr().err
    assert main(["generate", "--class", "2opt",
                 "--skeleton", "theta:3"]) == 3
    assert "must be even" in capsys.readouterr().err
    assert main(["generate", "--class", "3opt",
                 "--skeleton", "theta:0"]) == 3
    assert "need at least 1 path" in capsys.readouterr().err
    assert main(["generate", "--class", "2opt",
                 "--skeleton", "cube"]) == 3
    assert "unknown skeleton" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


def test_verify_3opt_on_a_skeleton_of_isolated_vertices(tmp_path, capsys):
    # two edges crossing once: the true-planar skeleton has no edges
    rot = {0: [0], 1: [4], 2: [3], 3: [7], 4: [1, 5, 2, 6]}
    twin = {0: 1, 2: 3, 4: 5, 6: 7}
    plus = Drawing(PlaneMultigraph(rot, twin), (4,),
                   {0: (0, 2), 1: (1, 3)}, {0: (0, 2), 1: (4, 6)})
    path = tmp_path / "plus.json"
    save_drawing(plus, path)
    assert main(["verify", "--class", "3opt", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "NOT optimal 3-planar" in out
    assert err == ""


EMPTY_DOCUMENT = ('{"format_version":1,"vertices":[],"darts":{},'
                  '"rotations":{},"base_edges":[]}')


@pytest.fixture
def disjoint_file(tmp_path):
    two_edges = PlaneMultigraph({0: [0], 1: [1], 2: [2], 3: [3]},
                                {0: 1, 2: 3})
    return skeleton_file(tmp_path, two_edges, "disjoint.json")


@pytest.fixture
def empty_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(EMPTY_DOCUMENT)
    return path


@pytest.mark.parametrize("document", ["disjoint_file", "empty_file"])
def test_generate_on_a_disconnected_or_empty_skeleton_exits_3(
        document, request, capsys):
    path = request.getfixturevalue(document)
    assert main(["generate", "--class", "2opt",
                 "--skeleton", f"file:{path}"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "connected" in err
    assert "Traceback" not in err


@pytest.fixture
def plus_file(tmp_path):
    # two edges crossing once: the true-planar skeleton has no edges
    rot = {0: [0], 2: [3], 1: [4], 3: [7], 4: [1, 5, 2, 6]}
    twin = {0: 1, 2: 3, 4: 5, 6: 7}
    plus = Drawing(PlaneMultigraph(rot, twin), (4,),
                   {0: (0, 2), 1: (1, 3)}, {0: (0, 2), 1: (4, 6)})
    path = tmp_path / "plus.json"
    save_drawing(plus, path)
    return path


def test_analyze_counts_skeleton_face_walks(plus_file, capsys):
    assert main(["analyze", str(plus_file)]) == 0
    out = capsys.readouterr().out
    assert "skeleton: n=4 m=0 f=0 connected=no face-lengths=[]" in out


def test_no_density_bound_below_three_vertices(empty_file, capsys):
    assert main(["analyze", str(empty_file)]) == 0
    out = capsys.readouterr().out
    assert "density: no bound below n = 3\n" in out
    assert main(["verify", "--class", "3opt", str(empty_file)]) == 1
    out = capsys.readouterr().out
    assert "  FAIL density: m = 0, no density bound below n = 3\n" in out
    assert "  FAIL chords-per-face: the skeleton has no face\n" in out
    assert "  FAIL chord-pattern: the skeleton has no face\n" in out


NOT_UTF8 = b"\xff" + EMPTY_DOCUMENT.encode()
NESTED = ("[" * 50000 + "]" * 50000).encode()
DARTS_LIST = EMPTY_DOCUMENT.replace('"darts":{}', '"darts":[]').encode()
ROTATIONS_NULL = EMPTY_DOCUMENT.replace('"rotations":{}',
                                       '"rotations":null').encode()
REPEATED_VERTEX = EMPTY_DOCUMENT.replace(
    '"vertices":[]', '"vertices":[{"id":0},{"id":0,"kind":"crossing"}]'
).encode()
METADATA = {name: f'{EMPTY_DOCUMENT[:-1]},"metadata":{value}}}'.encode()
            for name, value in [("list", "[]"), ("null", "null"),
                                ("zero", "0"), ("string", '""'),
                                ("false", "false")]}
# documents whose first vertex, dart or base edge lacks a member
MISSING = [
    ("vertex_id", '"vertices":[]', '"vertices":[{"kind":"real"}]',
     'vertices[0] is missing "id"'),
    ("twin", '"darts":{}', '"darts":{"0":{"origin":0}}',
     'darts["0"] is missing "twin"'),
    ("origin", '"darts":{}', '"darts":{"0":{"twin":1},"1":{"twin":0}}',
     'darts["0"] is missing "origin"'),
    ("edge_id", '"base_edges":[]',
     '"base_edges":[{"endpoints":[0,0],"dart_path":[]}]',
     'base_edges[0] is missing "id"'),
    ("endpoints", '"base_edges":[]', '"base_edges":[{"id":0,"dart_path":[]}]',
     'base_edges[0] is missing "endpoints"'),
    ("dart_path", '"base_edges":[]',
     '"base_edges":[{"id":0,"endpoints":[0,0]}]',
     'base_edges[0] is missing "dart_path"')]
READERS = [["verify", "--class", "2opt"], ["verify", "--class", "3opt"],
           ["analyze"], ["export", "--format", "dot"],
           ["export", "--format", "svg"], ["barvis"]]


def assert_error_exit_3(argv, capsys, message):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data, message",
    [(NOT_UTF8, "not UTF-8"), (NESTED, "nested too deeply"),
     (DARTS_LIST, "darts must be an object"),
     (ROTATIONS_NULL, "rotations must be an object"),
     (REPEATED_VERTEX, "duplicate vertex id 0"),
     *((data, "metadata must be an object") for data in METADATA.values()),
     *((EMPTY_DOCUMENT.replace(part, value).encode(), f"error: {message}\n")
       for _, part, value, message in MISSING)],
    ids=["not_utf8", "nested", "darts_list", "rotations_null",
         "repeated_vertex", *(f"metadata_{name}" for name in METADATA),
         *(f"missing_{name}" for name, *_ in MISSING)])
def test_unreadable_documents_exit_3(data, message, tmp_path, capsys,
                                     monkeypatch):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    for argv in READERS:
        assert_error_exit_3(argv + [str(path)], capsys, message)
        monkeypatch.setattr("sys.stdin",
                            io.TextIOWrapper(io.BytesIO(data), "utf-8"))
        assert_error_exit_3(argv + ["-"], capsys, message)
    assert_error_exit_3(["generate", "--class", "2opt",
                         "--skeleton", f"file:{path}"], capsys, message)


@pytest.mark.parametrize("document", ["disjoint_file", "empty_file"])
def test_svg_export_without_a_layout_exits_3(document, request, capsys):
    path = request.getfixturevalue(document)
    assert main(["export", "--format", "svg", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "layout" in err
    assert "Traceback" not in err


def test_one_parser_serves_every_call_in_a_process(dodeca_file, capsys):
    """A verify, a usage error, a DOT export and a verify again, in one
    process, give what each gives in a fresh process."""
    runs = [["verify", "--class", "2opt", str(dodeca_file)],
            ["verify", "--class", "4opt", str(dodeca_file)],
            ["export", "--format", "dot", str(dodeca_file)],
            ["verify", "--class", "3opt", str(dodeca_file)]]
    in_process = []
    for argv in runs:
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        in_process.append((code, *capsys.readouterr()))
    src = str(Path(optiplanar.__file__).resolve().parents[1])
    fresh = []
    for argv in runs:
        result = subprocess.run(
            [sys.executable, "-m", "optiplanar", *argv], capture_output=True,
            text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        fresh.append((result.returncode, result.stdout, result.stderr))
    assert in_process == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 1]
    assert build_parser() is build_parser()
