"""Tests for JSON persistence and the SVG/DOT exporters.

The JSON layer must round-trip every generated drawing byte-for-byte,
reject malformed or version-skewed documents with ParseError and
VersionMismatch, and reject well-formed documents describing broken
drawings with InvariantViolation (carrying the diagnostics).
"""

import copy
import io
import json
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optiplanar import (
    Drawing,
    PlaneMultigraph,
    dodecahedron,
    dumps_drawing,
    export_dot,
    export_svg,
    generate_optimal,
    load_drawing,
    loads_drawing,
    save_drawing,
    theta_hexangulation,
    theta_pentagulation,
)
from optiplanar.docio import FORMAT_VERSION
from optiplanar.errors import (
    InvariantViolation,
    OptiplanarError,
    ParseError,
    VersionMismatch,
)

SVG = "{http://www.w3.org/2000/svg}"


def sample_drawings():
    return [
        generate_optimal(2, theta_pentagulation(2)),
        generate_optimal(2, theta_pentagulation(4),
                         metadata={"generator": {"p": 4}}),
        generate_optimal(2, dodecahedron()),
        generate_optimal(3, theta_hexangulation(1)),
        generate_optimal(3, theta_hexangulation(3), missing_middle=2),
    ]


def rolled(rotation):
    if not rotation:
        return rotation
    k = rotation.index(min(rotation))
    return rotation[k:] + rotation[:k]


def test_round_trip_is_byte_identical():
    for d in sample_drawings():
        text = dumps_drawing(d)
        again = loads_drawing(text)
        assert dumps_drawing(again) == text
        assert again.base_edges == d.base_edges
        assert again.edge_paths == d.edge_paths
        assert again.crossing_vertices == d.crossing_vertices
        assert again.metadata == d.metadata
        for v in d.plane.vertices:
            # storage rolls each rotation to start at its smallest dart
            assert rolled(again.plane.rotation(v)) \
                == rolled(d.plane.rotation(v))


def test_document_shape():
    d = generate_optimal(3, theta_hexangulation(1))
    doc = json.loads(dumps_drawing(d))
    assert doc["format_version"] == FORMAT_VERSION == 1
    assert sorted(doc) == ["base_edges", "darts", "format_version",
                           "metadata", "rotations", "vertices"]
    kinds = {v["kind"] for v in doc["vertices"]}
    assert kinds == {"real", "crossing"}
    assert dumps_drawing(d).endswith("\n")


def test_save_and_load_paths(tmp_path):
    d = generate_optimal(2, theta_pentagulation(2), metadata={"x": [1, 2]})
    path = tmp_path / "drawing.json"
    save_drawing(d, path)
    again = load_drawing(path)
    assert dumps_drawing(again) == dumps_drawing(d)
    with pytest.raises(OSError):
        load_drawing(tmp_path / "absent.json")


def tampered(transform):
    d = generate_optimal(3, theta_hexangulation(1))
    doc = json.loads(dumps_drawing(d))
    transform(doc)
    return json.dumps(doc)


def test_parse_errors():
    with pytest.raises(ParseError):
        loads_drawing("{broken")
    with pytest.raises(ParseError):
        loads_drawing("[1, 2, 3]")
    with pytest.raises(ParseError):
        loads_drawing(tampered(lambda doc: doc.pop("darts")))
    with pytest.raises(ParseError):
        loads_drawing(tampered(
            lambda doc: doc["vertices"][0].update(kind="imaginary")))
    with pytest.raises(ParseError):
        loads_drawing(tampered(
            lambda doc: doc["rotations"].update({"999": []})))
    with pytest.raises(ParseError):
        loads_drawing(tampered(lambda doc: doc.update(metadata=5)))
    for key in ("darts", "rotations"):
        for value in ([], None, 3, True, "x"):
            with pytest.raises(ParseError,
                               match=f"^{key} must be an object$"):
                loads_drawing(tampered(lambda doc: doc.update({key: value})))
    # a vertex listed twice, whether as the same kind or as another one
    vertices = json.loads(tampered(lambda doc: None))["vertices"]
    crossing = next(v["id"] for v in vertices if v["kind"] == "crossing")
    for kind in ("crossing", "real"):
        with pytest.raises(ParseError,
                           match=f"^duplicate vertex id {crossing}$"):
            loads_drawing(tampered(lambda doc: doc["vertices"].append(
                {"id": crossing, "kind": kind})))
    # only a missing metadata key means no metadata
    for value in ([], None, 0, "", False):
        with pytest.raises(ParseError, match="^metadata must be an object$"):
            loads_drawing(tampered(lambda doc: doc.update(metadata=value)))
    assert loads_drawing(tampered(lambda doc: doc.pop("metadata"))).metadata \
        == {}
    # a dart's origin is parsed with its twin, before construction
    with pytest.raises(ParseError, match="^malformed document: 'origin'$"):
        loads_drawing(tampered(lambda doc: doc["darts"]["0"].pop("origin")))
    for value in ("x", None, [0], float("inf")):
        with pytest.raises(ParseError, match="^malformed document: "):
            loads_drawing(tampered(
                lambda doc: doc["darts"]["0"].update(origin=value)))


SMALL = json.loads(dumps_drawing(generate_optimal(2, theta_pentagulation(2))))
DELETE = object()


def members(node, path=()):
    """The path of every member of a JSON tree, as keys and indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from members(child, path + (key,))


@settings(deadline=None, max_examples=300)
@given(path=st.sampled_from(list(members(SMALL))),
       value=st.one_of(
           st.just(DELETE), st.none(), st.booleans(), st.floats(),
           st.sampled_from(["", "0", "07", "x"]) | st.text(max_size=3),
           st.lists(st.integers(-1, 40), max_size=3),
           st.dictionaries(st.sampled_from(["0", "1", "id", "x"]),
                           st.integers(-1, 40), max_size=2)))
def test_one_changed_member_loads_or_raises_a_package_error(path, value):
    doc = copy.deepcopy(SMALL)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    try:
        loads_drawing(json.dumps(doc))
    except OptiplanarError:
        pass


def test_load_drawing_reads_paths_and_open_binary_files(tmp_path):
    text = dumps_drawing(generate_optimal(2, theta_pentagulation(2)))
    path = tmp_path / "drawing.json"
    path.write_text(text)
    for source in (str(path), io.BytesIO(text.encode())):
        assert dumps_drawing(load_drawing(source)) == text


def test_bytes_that_are_not_utf8_are_a_parse_error(tmp_path):
    data = b"\xff" + dumps_drawing(
        generate_optimal(2, theta_pentagulation(2))).encode()
    path = tmp_path / "latin.json"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data)):
        with pytest.raises(ParseError, match="^not UTF-8 text: "):
            load_drawing(source)


def test_deeply_nested_json_is_a_parse_error():
    for text in ("[" * 50000 + "]" * 50000,
                 '{"a":' * 50000 + "1" + "}" * 50000):
        with pytest.raises(ParseError,
                           match="^not valid JSON: nested too deeply$"):
            loads_drawing(text)


def test_version_mismatch():
    with pytest.raises(VersionMismatch):
        loads_drawing(tampered(
            lambda doc: doc.update(format_version=FORMAT_VERSION + 1)))


def crossing_id(doc):
    return next(v["id"] for v in doc["vertices"] if v["kind"] == "crossing")


def test_invariant_violations():
    # a reversed rotation at a crossing breaks the sphere embedding
    def flip(doc):
        x = crossing_id(doc)
        doc["rotations"][str(x)] = doc["rotations"][str(x)][::-1]
    with pytest.raises(InvariantViolation):
        loads_drawing(tampered(flip))

    def relabel_origin(doc):
        doc["darts"]["0"]["origin"] += 1
    with pytest.raises(InvariantViolation):
        loads_drawing(tampered(relabel_origin))

    def self_twin(doc):
        doc["darts"]["0"]["twin"] = 0
    with pytest.raises(InvariantViolation):
        loads_drawing(tampered(self_twin))


def test_invariant_violation_carries_diagnostics():
    # a tangential crossing loads structurally but fails validation
    rot = {0: [0], 1: [4], 2: [3], 3: [7], 4: [1, 2, 5, 6]}
    twin = {0: 1, 2: 3, 4: 5, 6: 7}
    plane = PlaneMultigraph(rot, twin)
    bad = Drawing(plane, (4,), {0: (0, 2), 1: (1, 3)},
                  {0: (0, 2), 1: (4, 6)})
    text = dumps_drawing(bad)
    with pytest.raises(InvariantViolation) as err:
        loads_drawing(text)
    assert err.value.diagnostics
    assert err.value.diagnostics[0].code == "TangentialCrossing"


def test_svg_export():
    d = generate_optimal(2, dodecahedron())
    svg = export_svg(d)
    root = ET.fromstring(svg)
    assert len(root.findall(f".//{SVG}polyline")) == 90
    # one circle per real vertex and one dot per crossing
    assert len(root.findall(f".//{SVG}circle")) == 80
    assert len(root.findall(f".//{SVG}text")) == 20
    assert svg == export_svg(generate_optimal(2, dodecahedron()))


def test_svg_export_handles_nonsimple_faces():
    for d in (generate_optimal(3, theta_hexangulation(1)),
              generate_optimal(2, theta_pentagulation(2))):
        root = ET.fromstring(export_svg(d))
        assert len(root.findall(f".//{SVG}polyline")) == len(d.base_edges)


def test_dot_export():
    d = generate_optimal(3, theta_hexangulation(1))
    dot = export_dot(d)
    lines = dot.splitlines()
    assert lines[0] == "graph drawing {"
    assert lines[1] == "  // 4 vertices, 11 edges, 11 crossings"
    assert lines[-1] == "}"
    assert dot.count(" -- ") == 11
    assert '  3 -- 3 [label="2"];' in lines  # a loop, crossed twice
    assert export_dot(d) == dot
