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
    # a dart's origin is parsed with its twin, before construction; a
    # missing member is named by the path of the first entry that lacks it
    for where, key, message in (
            (lambda doc: doc["darts"]["0"], "origin",
             'darts["0"] is missing "origin"'),
            (lambda doc: doc["darts"]["3"], "twin",
             'darts["3"] is missing "twin"'),
            (lambda doc: doc["vertices"][2], "id",
             'vertices[2] is missing "id"'),
            (lambda doc: doc["base_edges"][0], "id",
             'base_edges[0] is missing "id"'),
            (lambda doc: doc["base_edges"][1], "endpoints",
             'base_edges[1] is missing "endpoints"'),
            (lambda doc: doc["base_edges"][1], "dart_path",
             'base_edges[1] is missing "dart_path"')):
        with pytest.raises(ParseError) as err:
            loads_drawing(tampered(lambda doc: where(doc).pop(key)))
        assert str(err.value) == message
    # two entries lack a member: the first one is named
    with pytest.raises(ParseError) as err:
        loads_drawing(tampered(lambda doc: [doc["darts"][g].pop("origin")
                                            for g in ("5", "1")]))
    assert str(err.value) == 'darts["1"] is missing "origin"'
    # kind stays optional
    assert loads_drawing(tampered(lambda doc: doc["vertices"][0].pop("kind")))
    for value, spelled in (("x", '"x"'), (None, "null"), ([0], "[0]"),
                           (float("inf"), "Infinity")):
        with pytest.raises(ParseError) as err:
            loads_drawing(tampered(
                lambda doc: doc["darts"]["0"].update(origin=value)))
        assert str(err.value) \
            == f'darts["0"].origin must be an integer, not {spelled}'


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


def altered(transform):
    doc = copy.deepcopy(SMALL)
    transform(doc)
    return json.dumps(doc)


def parse_error(text):
    with pytest.raises(ParseError) as err:
        loads_drawing(text)
    return str(err.value)


def test_coercions_are_parse_errors():
    def vertex_id(value):
        return altered(lambda doc: doc["vertices"][0].update(id=value))
    assert parse_error(vertex_id(0.9)) \
        == "vertices[0].id must be an integer, not 0.9"
    assert parse_error(vertex_id("0")) \
        == 'vertices[0].id must be an integer, not "0"'
    assert parse_error(vertex_id(True)) \
        == "vertices[0].id must be an integer, not true"
    assert parse_error(altered(
        lambda doc: doc["base_edges"][0].update(dart_path="0"))) \
        == 'base_edges[0].dart_path must be an array, not "0"'
    assert parse_error(altered(
        lambda doc: doc["rotations"].update({"0": "0"}))) \
        == 'rotations["0"] must be an array, not "0"'
    assert parse_error(altered(
        lambda doc: doc["base_edges"][1].update(endpoints="02"))) \
        == 'base_edges[1].endpoints must be an array, not "02"'
    assert parse_error(altered(
        lambda doc: doc["base_edges"][1].update(endpoints=[0, 2, 4]))) \
        == "base_edges[1].endpoints must hold two vertex ids, not [0, 2, 4]"
    assert parse_error(altered(
        lambda doc: doc["base_edges"][2]["endpoints"].__setitem__(1, 2.0))) \
        == "base_edges[2].endpoints[1] must be an integer, not 2.0"
    assert parse_error(altered(
        lambda doc: doc["rotations"]["3"].__setitem__(1, False))) \
        == 'rotations["3"][1] must be an integer, not false'
    assert parse_error(altered(
        lambda doc: doc["darts"].update({"007": doc["darts"].pop("7")}))) \
        == 'darts key "007" is not an integer in canonical decimal'
    assert parse_error(altered(
        lambda doc: doc["rotations"].update(
            {" 3": doc["rotations"].pop("3")}))) \
        == 'rotations key " 3" is not an integer in canonical decimal'
    assert parse_error(altered(lambda doc: doc.update(format_version=1.0))) \
        == "format_version must be an integer, not 1.0"
    assert parse_error(altered(lambda doc: doc.update(vertices={}))) \
        == "vertices must be an array"
    assert parse_error(altered(lambda doc: doc["vertices"].append(3))) \
        == f"vertices[{len(SMALL['vertices'])}] must be an object, not 3"
    assert parse_error(altered(
        lambda doc: doc["darts"]["4"].update(side=1))) \
        == 'darts["4"] has unknown key "side"'
    assert parse_error(altered(lambda doc: doc.update(extra=None))) \
        == 'the document has unknown key "extra"'
    assert parse_error("1" * 5000).startswith("not valid JSON: ")


def test_duplicate_keys_are_parse_errors():
    text = dumps_drawing(generate_optimal(2, theta_pentagulation(2)))
    top = text.replace('"metadata": {}', '"metadata": {}, "metadata": {}')
    assert parse_error(top) == 'duplicate key "metadata"'
    dart = text.replace('"twin": 1,', '"twin": 1, "twin": 1,', 1)
    assert parse_error(dart) == 'duplicate key "twin"'
    darts = text.replace('"darts": {',
                         '"darts": {"0": {"twin": 1, "origin": 0},', 1)
    assert parse_error(darts) == 'duplicate key "0"'
    meta = text.replace('"metadata": {}', '"metadata": {"a": 1, "a": 2}')
    assert parse_error(meta) == 'duplicate key "a"'


def member(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_every_retyped_integer_and_respelled_key_is_a_parse_error():
    """Every integer member of the document retyped, and every object
    key respelled as a number that is not canonical."""
    paths = list(members(SMALL))
    integers = [path for path in paths if type(member(SMALL, path)) is int]
    keys = [path for path in paths if isinstance(path[-1], str)]
    assert len(integers) > 200 and len(keys) > 100
    for path in integers:
        v = member(SMALL, path)
        for value in (True, False, float(v), str(v), [v]):
            doc = copy.deepcopy(SMALL)
            member(doc, path[:-1])[path[-1]] = value
            with pytest.raises(ParseError):
                loads_drawing(json.dumps(doc))
    for path in keys:
        for spelling in ("007", " 7", "+7", "-0", "7.0"):
            doc = copy.deepcopy(SMALL)
            parent = member(doc, path[:-1])
            parent[spelling] = parent.pop(path[-1])
            with pytest.raises(ParseError):
                loads_drawing(json.dumps(doc))


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


def test_origin_mismatch_names_the_first_dart_in_document_order():
    doc = json.loads(dumps_drawing(generate_optimal(3, theta_hexangulation(1))))
    darts = doc["darts"]
    sits = {g: darts[g]["origin"] for g in ("2", "5")}
    for g in sits:
        darts[g]["origin"] = sits[g] + 1
    doc["darts"] = {"5": darts.pop("5"), **darts}
    with pytest.raises(InvariantViolation) as err:
        loads_drawing(json.dumps(doc))
    assert str(err.value) == (f"dart 5 declares origin {sits['5'] + 1} but "
                              f"sits in the rotation of {sits['5']}")


def test_a_darts_table_that_omits_a_dart_is_refused():
    doc = json.loads(dumps_drawing(generate_optimal(2, theta_pentagulation(2))))
    assert doc["darts"]["1"] == {"twin": 0, "origin": 2}
    del doc["darts"]["1"]
    with pytest.raises(InvariantViolation) as err:
        loads_drawing(json.dumps(doc))
    assert str(err.value) == ("dart 1 sits in the rotation of 2 but has no "
                              "entry in darts")
    # of two darts left out, the smaller is named
    del doc["darts"]["5"]
    with pytest.raises(InvariantViolation, match="^dart 1 sits in"):
        loads_drawing(json.dumps(doc))
    # a mismatching origin is named before a missing dart
    doc["darts"]["0"]["origin"] = 1
    with pytest.raises(InvariantViolation, match="^dart 0 declares origin 1"):
        loads_drawing(json.dumps(doc))


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
