"""Tests for the write path: the SVG layout solve and the JSON writer.

Both layers have a reference here that they must agree with: the layout
against a dense solve of the same linear system, the writer against
``json.dumps(indent=2)`` of the document as a dict.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import optiplanar
from optiplanar import (
    Drawing,
    PlaneMultigraph,
    dodecahedron,
    dumps_drawing,
    export_svg,
    generate_optimal,
    load_drawing,
    loads_drawing,
    save_drawing,
    theta_hexangulation,
    theta_pentagulation,
)
from optiplanar import docio
from optiplanar.cli import main
from optiplanar.errors import LayoutFailure

SVG = "{http://www.w3.org/2000/svg}"


# --- the layout solve against a dense solve ---------------------------------


def dense_layout_positions(d):
    """The barycentric layout by a dense np.linalg.solve of its Laplacian."""
    import numpy as np

    plane = d.plane
    faces = plane.faces()
    outer = max(range(len(faces)),
                key=lambda i: (faces[i].length, -i))
    adj = {v: [] for v in plane.vertices}
    for dart in plane.darts:
        adj[plane.origin(dart)].append(plane.head(dart))
    for i, walk in enumerate(faces):
        if i == outer:
            continue
        apex = -(i + 1)
        adj[apex] = []
        for v in walk.vertices:
            adj[apex].append(v)
            adj[v].append(apex)
    pinned = {}
    corners = faces[outer].vertices
    for idx, v in enumerate(corners):
        if v in pinned:
            continue
        angle = 2 * math.pi * idx / len(corners)
        pinned[v] = (math.cos(angle), math.sin(angle))
    free = sorted(v for v in adj if v not in pinned)
    index = {v: i for i, v in enumerate(free)}
    n = len(free)
    lap = np.zeros((n, n))
    rhs = np.zeros((n, 2))
    for v in free:
        i = index[v]
        for u in adj[v]:
            lap[i, i] += 1.0
            if u in pinned:
                rhs[i, 0] += pinned[u][0]
                rhs[i, 1] += pinned[u][1]
            else:
                lap[i, index[u]] -= 1.0
    solved = np.linalg.solve(lap, rhs)
    positions = dict(pinned)
    for v in free:
        if v >= 0:
            positions[v] = (float(solved[index[v], 0]),
                            float(solved[index[v], 1]))
    return positions


# sha256 of export_svg as the dense solve rendered it
LAYOUT_CASES = {
    "dodecahedron": (
        lambda: generate_optimal(2, dodecahedron()),
        "84e7737059fe17f6c34ee11c6f1d81b22fc2e6fbbee9a4e9dd94252c565c039b"),
    "theta2-p8": (
        lambda: generate_optimal(2, theta_pentagulation(8)),
        "3662ffc7a315828d53a681c7ccc6ac5d6f086927c5b13659e48f140a1c08f4b7"),
    "theta2-p64": (
        lambda: generate_optimal(2, theta_pentagulation(64)),
        "22d8807fb10ec9fafcf571e440ddc6622b4c5a3b8f078e3f5c1ee6a2d3ee8980"),
    "theta3-p3-mm0": (
        lambda: generate_optimal(3, theta_hexangulation(3)),
        "52cb927d196ecf21905bbe058c284b9b5df93adaeeffa75f984a8ff8d0d72472"),
    "theta3-p3-mm1": (
        lambda: generate_optimal(3, theta_hexangulation(3), missing_middle=1),
        "6fc3b3b41fabbfca4c7f41b4bec0b9e2a5e3febaff21bb66c0874de877e3c00e"),
    "theta3-p3-mm2": (
        lambda: generate_optimal(3, theta_hexangulation(3), missing_middle=2),
        "bc6e9b367638d66932cb2a57b2cbd0ead949da5da301a66ad141bd88872f1853"),
    # non-simple faces
    "theta3-p1": (
        lambda: generate_optimal(3, theta_hexangulation(1)),
        "514f00caded879ef8dd32e40d804646bd80c9f69b634fccca731ae67aa34346d"),
    "theta2-p2": (
        lambda: generate_optimal(2, theta_pentagulation(2)),
        "f54714323f28ddf9ddc2f74d64fbe83b6b88ec3096406674ae951d19ca41c29a"),
}


@pytest.mark.parametrize("build, digest", LAYOUT_CASES.values(),
                         ids=LAYOUT_CASES.keys())
def test_layout_agrees_with_the_dense_solve(build, digest):
    d = build()
    positions = docio._layout_positions(d)
    expected = dense_layout_positions(d)
    assert positions.keys() == expected.keys()
    for v, (x, y) in expected.items():
        assert abs(positions[v][0] - x) <= 1e-9
        assert abs(positions[v][1] - y) <= 1e-9
    assert hashlib.sha256(export_svg(d).encode()).hexdigest() == digest


def adj_layout_positions(d):
    """The barycentric layout as it was assembled from neighbour lists:
    free vertices in the order of plane.vertices, then the stellation
    apexes keyed -(i + 1) for face i, each row summed in list order."""
    import numpy as np

    plane = d.plane
    faces = plane.faces()
    outer = max(range(len(faces)),
                key=lambda i: (faces[i].length, -i))
    pinned = {}
    corners = faces[outer].vertices
    for idx, v in enumerate(corners):
        if v in pinned:
            continue
        angle = 2 * math.pi * idx / len(corners)
        pinned[v] = (math.cos(angle), math.sin(angle))
    adj = {v: [plane.head(g) for g in plane.rotation(v)]
           for v in plane.vertices if v not in pinned}
    for i, walk in enumerate(faces):
        if i == outer:
            continue
        adj[-(i + 1)] = list(walk.vertices)
        for v in walk.vertices:
            if v not in pinned:
                adj[v].append(-(i + 1))
    free = list(adj)
    index = {v: i for i, v in enumerate(free)}
    rows, cols = [], []
    rhs_x, rhs_y = [0.0] * len(free), [0.0] * len(free)
    for i, v in enumerate(free):
        for u in adj[v]:
            j = index.get(u)
            if j is None:
                rhs_x[i] += pinned[u][0]
                rhs_y[i] += pinned[u][1]
            else:
                rows.append(i)
                cols.append(j)
    deg = np.array([len(adj[v]) for v in free], dtype=float)
    rows = np.array(rows, dtype=np.intp)
    cols = np.array(cols, dtype=np.intp)
    xs = docio._solve_laplacian(deg, rows, cols, np.array(rhs_x))
    ys = docio._solve_laplacian(deg, rows, cols, np.array(rhs_y))
    positions = dict(pinned)
    for i, v in enumerate(free):
        if v >= 0:
            positions[v] = (float(xs[i]), float(ys[i]))
    return positions


EXACT_LAYOUT_CASES = {
    **{name: build for name, (build, _) in LAYOUT_CASES.items()},
    **{f"theta3-p48-mm{mm}":
       (lambda mm=mm: generate_optimal(3, theta_hexangulation(48),
                                       missing_middle=mm))
       for mm in (0, 1, 2)},
}


@pytest.mark.parametrize("build", EXACT_LAYOUT_CASES.values(),
                         ids=EXACT_LAYOUT_CASES.keys())
def test_layout_equals_the_neighbour_list_assembly(build):
    d = build()
    assert docio._layout_positions(d) == adj_layout_positions(d)


def ladder(rungs):
    """A crossing-free ladder: every vertex lies on its longest face."""
    top, bottom = list(range(rungs)), list(range(rungs, 2 * rungs))
    faces = [[top[i], top[i + 1], bottom[i + 1], bottom[i]]
             for i in range(rungs - 1)]
    faces.append(bottom + top[::-1])
    return Drawing.from_plane(PlaneMultigraph.from_faces(faces))


def test_layout_without_free_neighbours_exports(tmp_path, capsys):
    # only the stellation apexes are free, and each sees pinned vertices
    d = ladder(4)
    path = tmp_path / "ladder.json"
    save_drawing(d, path)
    assert main(["export", "--format", "svg", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    root = ET.fromstring(out)
    assert len(root.findall(f".//{SVG}polyline")) == len(d.base_edges) == 10
    assert len(root.findall(f".//{SVG}text")) == 8


def test_layout_that_does_not_converge_is_a_layout_failure(monkeypatch):
    monkeypatch.setattr(docio, "_cg_iteration_cap", lambda n: 1)
    with pytest.raises(LayoutFailure, match="did not converge"):
        export_svg(generate_optimal(2, dodecahedron()))


def test_layout_memory_grows_with_the_drawing_not_its_square():
    import numpy  # noqa: F401 -- its import is not the layout's memory
    d = generate_optimal(2, theta_pentagulation(128))
    tracemalloc.start()
    try:
        export_svg(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


NUMPY_PROBE = """
import json, sys
import optiplanar.cli
seen = ["numpy" in sys.modules]
assert optiplanar.cli.main(["verify", "--class", "2opt", sys.argv[1]]) == 0
seen.append("numpy" in sys.modules)
assert optiplanar.cli.main(["export", "--format", "svg", sys.argv[1],
                            "-o", sys.argv[2]]) == 0
seen.append("numpy" in sys.modules)
print(json.dumps(seen))
"""


def test_numpy_is_loaded_only_by_the_svg_export(tmp_path):
    path = tmp_path / "dodeca.json"
    save_drawing(generate_optimal(2, dodecahedron()), path)
    src = str(Path(optiplanar.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(path),
         str(tmp_path / "dodeca.svg")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.splitlines()[-1]) == [False, False, True]


# --- the JSON writer against json.dumps -------------------------------------


def json_dumps_oracle(d):
    """The canonical text as json.dumps(indent=2) writes the document."""
    plane = d.plane
    vertices = [
        {"id": v,
         "kind": "crossing" if v in d.crossing_vertices else "real"}
        for v in sorted(plane.vertices)
    ]
    darts = {
        str(dart): {"twin": plane.twin(dart), "origin": plane.origin(dart)}
        for dart in sorted(plane.darts)
    }
    rotations = {}
    for v in sorted(plane.vertices):
        rot = list(plane.rotation(v))
        if rot:
            k = rot.index(min(rot))
            rot = rot[k:] + rot[:k]
        rotations[str(v)] = rot
    base_edges = [
        {"id": e,
         "endpoints": list(d.base_edges[e]),
         "dart_path": list(d.edge_paths[e])}
        for e in sorted(d.base_edges)
    ]
    doc = {
        "format_version": docio.FORMAT_VERSION,
        "vertices": vertices,
        "darts": darts,
        "rotations": rotations,
        "base_edges": base_edges,
        "metadata": dict(d.metadata),
    }
    return json.dumps(doc, indent=2) + "\n"


def test_writer_matches_json_dumps_on_cli_generate(tmp_path):
    path = tmp_path / "hex.json"
    assert main(["generate", "--class", "3opt", "--skeleton", "theta:3",
                 "--missing-middle", "1", "-o", str(path)]) == 0
    d = load_drawing(path)
    assert d.metadata["generator"]["missing_middle"] == 1
    assert path.read_text() == json_dumps_oracle(d) == dumps_drawing(d)


WRITER_METADATA = {
    "non-ascii nested": {"name": "Zeichnung — ü ∞ 日本",
                         "nested": [1, [2.5, None, True, []],
                                    {"ключ": "значение", "e": {}}],
                         "floats": [1e-7, -0.0, 3.25e300], "none": None,
                         "quote \"and\" \\ tab\t": "line\nbreak"},
    "empty": {},
}


@pytest.mark.parametrize("metadata", WRITER_METADATA.values(),
                         ids=WRITER_METADATA.keys())
def test_writer_matches_json_dumps_with_metadata(metadata):
    for d in (generate_optimal(2, dodecahedron(), metadata=metadata),
              generate_optimal(3, theta_hexangulation(1),
                               metadata=metadata)):
        text = dumps_drawing(d)
        assert text == json_dumps_oracle(d)
        assert loads_drawing(text).metadata == metadata


def test_writer_matches_json_dumps_on_degenerate_documents():
    single_edge = Drawing.from_plane(
        PlaneMultigraph({0: [0], 1: [1]}, {0: 1, 1: 0}))
    isolated_vertex = Drawing(
        PlaneMultigraph({0: [0], 1: [1], 2: []}, {0: 1, 1: 0}),
        (), {0: (0, 1)}, {0: (0,)})
    empty = Drawing(PlaneMultigraph({}, {}), (), {}, {})
    for d in (single_edge, isolated_vertex, empty):
        assert dumps_drawing(d) == json_dumps_oracle(d)
    assert '"2": []' in dumps_drawing(isolated_vertex)
    assert dumps_drawing(empty) == (
        '{\n  "format_version": 1,\n  "vertices": [],\n  "darts": {},\n'
        '  "rotations": {},\n  "base_edges": [],\n  "metadata": {}\n}\n')
