"""Tests for the bulk drawing checks against the per-item checks they
replaced.

``validate`` and the ``Drawing`` constructor prove the common valid case
for the whole drawing at once and go item by item only to name a fault.
The item-by-item routines they replaced live on here as oracles: the new
code must give the same diagnostics, witnesses and order included, and
the same first ValueError.  Likewise the loader reads the keys of a
table as one JSON array, checked here against the ``int``/``str`` round
trip it replaced, and proves its members by counts, checked against the
messages of the key-by-key check.
"""

import itertools
import json
import json.scanner
import re
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optiplanar import (
    Drawing,
    PlaneMultigraph,
    docio,
    dodecahedron,
    dumps_drawing,
    generate_optimal,
    load_drawing,
    loads_drawing,
    remove_base_edge,
    save_drawing,
    theta_hexangulation,
    theta_pentagulation,
    validate,
)
from optiplanar.cli import main
from optiplanar.drawing import Diagnostic
from optiplanar.errors import InvariantViolation, ParseError

# --- oracles: the item-by-item checks ----------------------------------------


def oracle_validate(d):
    """Every drawing invariant checked vertex by vertex and edge by edge."""
    plane = d.plane
    out = []

    for v in sorted(d.real_vertices):
        if plane.degree(v) == 0:
            out.append(Diagnostic("IsolatedVertex",
                                  f"real vertex {v} has no edges", (v,)))
    for x in sorted(d.crossing_vertices):
        if plane.degree(x) != 4:
            out.append(Diagnostic(
                "BadCrossingDegree",
                f"crossing vertex {x} has degree {plane.degree(x)}, not 4",
                (x,)))

    for e in sorted(d.base_edges):
        path = d.edge_paths[e]
        u, v = d.base_edges[e]
        visited = [plane.origin(dart) for dart in path]
        visited.append(plane.head(path[-1]))
        interior = visited[1:-1]
        seen = set()
        repeated = None
        for w in interior:
            if w in seen or w == u or w == v:
                repeated = w
                break
            seen.add(w)
        if repeated is not None:
            out.append(Diagnostic(
                "SelfCrossingEdge",
                f"edge {e} passes through vertex {repeated} twice",
                (e, repeated)))
        for w in interior:
            if w not in d.crossing_vertices:
                out.append(Diagnostic(
                    "VertexOnEdge",
                    f"edge {e} passes through real vertex {w}", (e, w)))

    twin = plane._twin
    use = Counter()
    for e in sorted(d.base_edges):
        for dart in d.edge_paths[e]:
            use[min(dart, twin[dart])] += 1
    for a in sorted(dart for dart, t in twin.items() if dart < t):
        seg = (a, twin[a])
        k = use.get(a, 0)
        if k == 0:
            out.append(Diagnostic(
                "OrphanSegment",
                f"planarization edge {seg} belongs to no edge path", seg))
        elif k > 1:
            out.append(Diagnostic(
                "OrphanSegment",
                f"planarization edge {seg} is used by {k} edge paths", seg))

    transits = {}
    for e in sorted(d.base_edges):
        path = d.edge_paths[e]
        for g, h in zip(path, path[1:]):
            transits.setdefault(plane.head(g), []).append(
                (e, plane.twin(g), h))
    for x in sorted(d.crossing_vertices):
        if plane.degree(x) != 4:
            continue
        tr = transits.get(x, [])
        if len(tr) != 2:
            continue
        rot = plane.rotation(x)
        pair = {frozenset(t[1:]) for t in tr}
        alternating = {frozenset((rot[0], rot[2])),
                       frozenset((rot[1], rot[3]))}
        if pair != alternating:
            e1, e2 = sorted(t[0] for t in tr)
            out.append(Diagnostic(
                "TangentialCrossing",
                f"edges {e1} and {e2} touch at vertex {x} instead of "
                "crossing transversally", (x, e1, e2)))
    return out


def oracle_constructor_fault(plane, crossing, base_edges, edge_paths):
    """The constructor's first ValueError message, edge by edge, or None."""
    cross = frozenset(crossing)
    base_edges = {e: (u, v) for e, (u, v) in base_edges.items()}
    edge_paths = {e: tuple(p) for e, p in edge_paths.items()}
    if not plane._rotations.keys() >= cross:
        return "crossing_vertices mentions unknown vertices"
    if base_edges.keys() != edge_paths.keys():
        return "base_edges and edge_paths disagree on edge ids"
    origin, twin = plane._origin, plane._twin
    for e in sorted(base_edges):
        u, v = base_edges[e]
        if u in cross or v in cross:
            return f"edge {e} ends at a crossing vertex"
        path = edge_paths[e]
        if not path:
            return f"edge {e} has an empty path"
        for d in path:
            if d not in origin:
                return f"edge {e} path uses unknown dart {d}"
        if origin[path[0]] != u or origin[twin[path[-1]]] != v:
            return (f"edge {e} path runs {origin[path[0]]} -> "
                    f"{origin[twin[path[-1]]]} but endpoints are ({u}, {v})")
        for a, b in zip(path, path[1:]):
            if origin[twin[a]] != origin[b]:
                return f"edge {e} path breaks between darts {a} and {b}"
    return None


def constructor_fault(plane, crossing, base_edges, edge_paths):
    try:
        Drawing(plane, crossing, base_edges, edge_paths)
    except ValueError as exc:
        return str(exc)
    return None


def assert_checks_agree(d):
    assert validate.__wrapped__(d) == oracle_validate(d)
    parts = (d.plane, d.crossing_vertices, d.base_edges, d.edge_paths)
    assert constructor_fault(*parts) is None
    assert oracle_constructor_fault(*parts) is None


# --- generated drawings and their deletion mutants ---------------------------


def generated():
    out = [generate_optimal(2, theta_pentagulation(p)) for p in (2, 4, 8)]
    out += [generate_optimal(3, theta_hexangulation(p), missing_middle=mm)
            for p in (1, 2, 3) for mm in (0, 1, 2)]
    out.append(generate_optimal(2, dodecahedron()))
    return out


def test_generated_drawings_agree_with_the_oracles():
    for d in generated():
        assert validate.__wrapped__(d) == []
        assert_checks_agree(d)


@pytest.mark.parametrize("make", [
    lambda: generate_optimal(2, theta_pentagulation(8)),
    lambda: generate_optimal(3, theta_hexangulation(3), missing_middle=1),
    lambda: generate_optimal(2, dodecahedron()),
], ids=["theta2-8", "theta3-3", "dodecahedron"])
def test_every_deletion_mutant_agrees_with_the_oracles(make):
    d = make()
    for e in sorted(d.base_edges):
        assert_checks_agree(remove_base_edge(d, e))


# --- hand-made faulty drawings -----------------------------------------------

# Each fault is (rotations, twin, crossing vertices, base edges, edge
# paths) on vertex ids below 10 and dart ids below 20.
PLUS = ({0: [0], 1: [4], 2: [3], 3: [7], 4: [1, 5, 2, 6]},
        {0: 1, 2: 3, 4: 5, 6: 7}, (4,),
        {0: (0, 2), 1: (1, 3)}, {0: (0, 2), 1: (4, 6)})
CYCLE = ({i: [2 * i, 2 * ((i - 1) % 5) + 1] for i in range(5)},
         {2 * i: 2 * i + 1 for i in range(5)}, (),
         {e: (e, (e + 1) % 5) for e in range(5)},
         {e: (2 * e,) for e in range(5)})
FAULTS = {
    "IsolatedVertex": ({**PLUS[0], 9: []}, *PLUS[1:]),
    "BadCrossingDegree": ({0: [0], 4: [1, 2], 2: [3]}, {0: 1, 2: 3}, (4,),
                          {0: (0, 2)}, {0: (0, 2)}),
    "SelfCrossingEdge": ({0: [0], 1: [5], 2: [1, 3, 2, 4]},
                         {0: 1, 2: 3, 4: 5}, (2,),
                         {0: (0, 1)}, {0: (0, 2, 4)}),
    "VertexOnEdge": (PLUS[0], PLUS[1], (), PLUS[3], PLUS[4]),
    "OrphanSegment unused": (CYCLE[0], CYCLE[1], (),
                             {e: CYCLE[3][e] for e in range(4)},
                             {e: CYCLE[4][e] for e in range(4)}),
    "OrphanSegment shared": (CYCLE[0], CYCLE[1], (),
                             {**CYCLE[3], 5: (0, 1)},
                             {**CYCLE[4], 5: (0,)}),
    "TangentialCrossing": ({**PLUS[0], 4: [1, 2, 5, 6]}, *PLUS[1:]),
}


def shifted(fault, k):
    """The fault with vertex ids moved up by 10 k and darts by 20 k, and
    its edge ids by 10 k, listed in reverse."""
    rot, twin, crossing, base, paths = fault
    dv, dd = 10 * k, 20 * k
    return ({v + dv: [g + dd for g in ds] for v, ds in rot.items()},
            {g + dd: t + dd for g, t in twin.items()},
            [x + dv for x in crossing],
            {e + dv: (u + dv, v + dv) for e, (u, v) in reversed(base.items())},
            {e + dv: tuple(g + dd for g in p)
             for e, p in reversed(paths.items())})


def union(*faults):
    """One drawing holding the given faults side by side."""
    rot, twin, crossing, base, paths = {}, {}, [], {}, {}
    for k, fault in enumerate(faults):
        r, t, c, b, p = shifted(fault, k)
        rot.update(r)
        twin.update(t)
        crossing += c
        base.update(b)
        paths.update(p)
    return Drawing(PlaneMultigraph(rot, twin), crossing, base, paths)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_fault_alone_agrees_with_the_oracle(name):
    d = union(FAULTS[name])
    problems = validate.__wrapped__(d)
    assert problems == oracle_validate(d)
    assert problems[0].code == name.split()[0]


def test_every_two_faults_agree_with_the_oracle():
    for a, b in itertools.combinations_with_replacement(sorted(FAULTS), 2):
        for faults in ((a, b), (b, a)):
            d = union(*(FAULTS[name] for name in faults), PLUS)
            problems = validate.__wrapped__(d)
            assert problems == oracle_validate(d), faults
            assert {p.code for p in problems} \
                >= {name.split()[0] for name in faults}


def test_altered_generated_drawings_agree_with_the_oracle():
    for d in (generate_optimal(2, theta_pentagulation(2)),
              generate_optimal(3, theta_hexangulation(1)),
              generate_optimal(2, dodecahedron())):
        plane, cross = d.plane, d.crossing_vertices
        base, paths = d.base_edges, d.edge_paths
        variants = [Drawing(plane, cross - {x}, base, paths)
                    for x in sorted(cross)[:8]]
        for e in sorted(base)[:8]:
            variants.append(Drawing(
                plane, cross, {g: base[g] for g in base if g != e},
                {g: paths[g] for g in paths if g != e}))
            variants.append(Drawing(plane, cross, {**base, -1: base[e]},
                                    {**paths, -1: paths[e]}))
        for v in variants:
            assert validate.__wrapped__(v) == oracle_validate(v)
            assert validate.__wrapped__(v)


# --- constructor errors ------------------------------------------------------


def broken_paths(plane, path):
    """Paths that break the constructor's rules in each way."""
    twin = plane._twin
    out = [(), path + (10 ** 6,), (10 ** 6,) + path, path[::-1],
           tuple(twin[g] for g in reversed(path)), path[:-1], path[1:]]
    if len(path) > 2:
        out.append(path[:1] + path[2:])
    return [p for p in out if p != path]


def test_each_constructor_error_agrees_with_the_oracle():
    seen = set()
    for d in (generate_optimal(3, theta_hexangulation(1)),
              generate_optimal(2, theta_pentagulation(2))):
        plane, cross = d.plane, d.crossing_vertices
        base, paths = d.base_edges, d.edge_paths
        x = min(cross)
        cases = [(cross | {10 ** 6}, base, paths),
                 (cross, base, {**paths, 10 ** 6: paths[0]})]
        for e in sorted(base):
            u, v = base[e]
            cases += [(cross, {**base, e: (x, v)}, paths),
                      (cross, {**base, e: (u, x)}, paths),
                      (cross, {**base, e: (v, u)}, paths),
                      (cross, {**base, e: (u, u + 1)}, paths)]
            cases += [(cross, base, {**paths, e: p})
                      for p in broken_paths(plane, paths[e])]
        # two faults at once: the first in edge order is named
        edges = sorted(base)
        for e, g in zip(edges, edges[3:]):
            cases.append((cross, base, {**paths, e: paths[e][::-1],
                                        g: ()}))
            cases.append((cross, {**base, g: (x, x)},
                          dict(reversed({**paths, e: ()}.items()))))
        for crossing, b, p in cases:
            want = oracle_constructor_fault(plane, crossing, b, p)
            assert constructor_fault(plane, crossing, b, p) == want
            seen.add(re.sub(r"-?\d+", "N", str(want)))
    assert seen >= {
        "crossing_vertices mentions unknown vertices",
        "base_edges and edge_paths disagree on edge ids",
        "edge N ends at a crossing vertex",
        "edge N has an empty path",
        "edge N path uses unknown dart N",
        "edge N path runs N -> N but endpoints are (N, N)",
        "edge N path breaks between darts N and N",
    }


# --- the loader against the hook-always parse ---------------------------------


def hooked_loads(text):
    """The loader as it was before its hook-free parse: every object goes
    through the duplicate-key hook, then the same checks."""
    return docio._drawing(*docio._read_document(docio._hooked_parse(text)))


def outcome(load, text):
    """The exception type and message a load raises, or the canonical
    text of the drawing it returns."""
    try:
        return dumps_drawing(load(text))
    except Exception as exc:
        return type(exc), str(exc)


def assert_loads_agree(texts):
    for text in texts:
        assert outcome(loads_drawing, text) == outcome(hooked_loads, text), \
            text


def loader_bases():
    meta = {"generator": {"class": "2opt", "skeleton": "theta:2"}}
    yield dumps_drawing(generate_optimal(2, theta_pentagulation(2),
                                         metadata=meta))
    meta = {"generator": {"class": "3opt", "skeleton": "theta:1",
                          "missing_middle": 0}}
    yield dumps_drawing(generate_optimal(3, theta_hexangulation(1),
                                         metadata=meta))


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


def altered_texts(text):
    """Every member deleted, every integer retyped and every key
    respelled as a number that is not canonical."""
    base = json.loads(text)
    for path in members(base):
        *head, last = path
        value = member_at(base, path)
        changes = [None]
        if type(value) is int:
            changes += [True, False, float(value), str(value), [value]]
        for change in changes:
            doc = json.loads(text)
            parent = member_at(doc, head)
            if change is None:
                del parent[last]
            else:
                parent[last] = change
            yield json.dumps(doc)
        if isinstance(last, str):
            for spelling in ("007", " 7", "+7", "-0", "7.0"):
                doc = json.loads(text)
                parent = member_at(doc, head)
                parent[spelling] = parent.pop(last)
                yield json.dumps(doc)


def member_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


MEMBER_LINE = re.compile(r'( *)"[^"]*": ')


def duplicated_texts(text):
    """Every member of the canonical text given twice, the copy first:
    as it is, with a space before its colon, and with another value."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        m = MEMBER_LINE.match(line)
        if not m:
            continue
        end = i
        if line.endswith(("{", "[")):
            close = m.group(1) + ("}" if line.endswith("{") else "]")
            end = next(j for j in range(i + 1, len(lines))
                       if lines[j].rstrip(",") == close)
        same = lines[i:end + 1]
        same[-1] = same[-1].rstrip(",") + ","
        spaced = [same[0].replace('": ', '" : ', 1), *same[1:]]
        other = [line[:m.end()] + '"x:y",']
        for dup in (same, spaced, other):
            yield "\n".join(lines[:i] + dup + lines[i:])


def with_later_fault(text):
    """The text with an unknown key after every other member, and the
    text cut short."""
    yield text.rstrip()[:-1].rstrip() + ',\n  "zzz": 0\n}\n'
    yield text[:-2]


@pytest.mark.parametrize("index", [0, 1], ids=["theta2-p2", "theta3-p1"])
def test_altered_documents_load_as_the_hooked_parse_does(index):
    base = list(loader_bases())[index]
    texts = list(altered_texts(base))
    assert len(texts) > 1000
    assert_loads_agree(texts)


@pytest.mark.parametrize("index", [0, 1], ids=["theta2-p2", "theta3-p1"])
def test_repeated_keys_load_as_the_hooked_parse_does(index):
    base = list(loader_bases())[index]
    texts = list(duplicated_texts(base))
    assert len(texts) > 600
    for text in texts:
        with pytest.raises(ParseError, match="^duplicate key "):
            loads_drawing(text)
    assert_loads_agree(texts)
    assert_loads_agree(chain.from_iterable(map(with_later_fault, texts)))


@pytest.mark.parametrize("index", [0, 1], ids=["theta2-p2", "theta3-p1"])
def test_each_darts_entry_deleted_is_refused(index):
    # the expected message comes from the base document: the hooked parse
    # shares _drawing, so it cannot be the oracle here
    base = list(loader_bases())[index]
    darts = json.loads(base)["darts"]
    for g, entry in darts.items():
        doc = json.loads(base)
        del doc["darts"][g]
        with pytest.raises(InvariantViolation) as err:
            loads_drawing(json.dumps(doc))
        assert str(err.value) == (f"dart {g} sits in the rotation of "
                                  f"{entry['origin']} but has no entry in "
                                  f"darts")


METADATA_TEXTS = {
    "colon": ('{"s": ":"}', True),
    "escaped colon": ('{"s": "\\u003a"}', True),
    "upper-case escaped colon": ('{"s:": "\\u003A"}', True),
    # counted as a colon, but it decodes to a backslash and "u003a"
    "escaped backslash before u003a": ('{"s": "\\\\u003a"}', True),
    "escaped quote": ('{"s": "a\\"b:c"}', True),
    "repeated key with a colon": ('{"x:": 1, "x:": 2}', False),
    "repeated key in a list": ('{"l": [0, {"a": 1, "a": 2}]}', False),
    # the escape decodes to the colon that the dropped member held
    "repeated key and an escaped colon": ('{"a": 1, "a": "\\u003a"}',
                                          False),
}


@pytest.mark.parametrize("metadata, loads", METADATA_TEXTS.values(),
                         ids=METADATA_TEXTS.keys())
def test_metadata_loads_as_the_hooked_parse_does(metadata, loads):
    text = dumps_drawing(generate_optimal(2, theta_pentagulation(2)))
    text = text.replace('"metadata": {}', f'"metadata": {metadata}')
    assert (type(outcome(loads_drawing, text)) is str) == loads
    assert_loads_agree([text])


def counting_hook(monkeypatch):
    """Count the calls of the duplicate-key hook from now on."""
    calls = []
    hook = docio._unique_keys

    def counted(pairs):
        calls.append(len(pairs))
        return hook(pairs)
    monkeypatch.setattr(docio, "_unique_keys", counted)
    return calls


class CountedText(str):
    """A text that records what each ``count`` call looks for."""

    def __new__(cls, text):
        self = super().__new__(cls, text)
        self.counted = []
        return self

    def count(self, sub, *args):
        self.counted.append(sub)
        return super().count(sub, *args)


def test_escapes_are_counted_only_in_texts_with_a_backslash(monkeypatch):
    text = CountedText(list(loader_bases())[0])
    assert "\\" not in text
    assert dumps_drawing(loads_drawing(text)) == text
    assert text.counted == [":"]
    d = generate_optimal(2, theta_pentagulation(2),
                         metadata={"name": "a\u00fc:b"})
    text = CountedText(dumps_drawing(d))
    assert "\\u00fc" in text
    calls = counting_hook(monkeypatch)
    assert dumps_drawing(loads_drawing(text)) == text
    assert text.counted == [":", "\\u003a", "\\u003A"]
    assert calls == []


def test_non_ascii_metadata_loads_without_the_key_hook(monkeypatch):
    # the writer escapes non-ASCII metadata, so the text holds backslashes
    d = generate_optimal(2, theta_pentagulation(64),
                         metadata={"name": "Zeichnung \u2014 \u00fc"})
    text = dumps_drawing(d)
    assert "\\u00fc" in text
    calls = counting_hook(monkeypatch)
    assert dumps_drawing(loads_drawing(text)) == text
    assert calls == []


def test_generated_documents_load_without_the_key_hook(tmp_path,
                                                       monkeypatch):
    skeleton = tmp_path / "skeleton.json"
    save_drawing(Drawing.from_plane(dodecahedron()), skeleton)
    runs = {"theta2": ["2opt", "theta:4"],
            "theta3": ["3opt", "theta:2", "--missing-middle", "1"],
            "dodecahedron": ["2opt", "dodecahedron"],
            "file": ["2opt", f"file:{skeleton}"]}
    paths = []
    for name, (klass, spec, *rest) in runs.items():
        paths.append(tmp_path / f"{name}.json")
        assert main(["generate", "--class", klass, "--skeleton", spec,
                     *rest, "-o", str(paths[-1])]) == 0
    assert ":" in json.loads(paths[-1].read_text())["metadata"]["generator"][
        "skeleton"]
    calls = counting_hook(monkeypatch)
    for path in paths:
        load_drawing(path)
    assert calls == []
    text = paths[0].read_text().replace('"twin": 1,', '"twin": 1, "twin": 1,')
    with pytest.raises(ParseError, match='^duplicate key "twin"$'):
        loads_drawing(text)
    assert calls


# --- ids read as one JSON array, against the int/str round trip ----------------


def oracle_ids(obj, where):
    """The id rule the array parse replaced: every key converted by int
    and back by str, and the first key that does not come back named."""
    keys = list(obj)
    try:
        ids = list(map(int, keys))
    except ValueError:
        ids = None
    if ids is None or list(map(str, ids)) != keys:
        key = next(key for key in keys if not docio._is_canonical(key))
        raise ParseError(f"{where} key {docio._spelled(key)} is not an "
                         f"integer in canonical decimal")
    return ids


def ids_outcome(read, keys, where):
    """The ids a reader gives for an object with these keys, or the
    message of the ParseError it raises."""
    try:
        return read(dict.fromkeys(keys, 0), where)
    except ParseError as exc:
        return str(exc)


ODD_KEYS = [" 7", "7 ", "\t7", "-0", "007", "+7", "7.0", "1e3", "true",
            "null", '"7"', "1,2", "", "[1]", "0x1", "٣", "7_0",
            "9" * 5000, "-5", "1000000"]
ODD_KEY_IDS = [repr(k) if len(k) < 10 else "5000 digits" for k in ODD_KEYS]


@pytest.mark.parametrize("where", ["darts", "rotations"])
@pytest.mark.parametrize("key", ODD_KEYS, ids=ODD_KEY_IDS)
def test_each_key_gives_the_ids_of_the_round_trip(key, where):
    for keys in ([key], ["3", key], [key, "3"], ["4", "-1", key, "12"]):
        want = ids_outcome(oracle_ids, keys, where)
        assert ids_outcome(docio._ids, keys, where) == want
    assert (type(want) is list) == (key in ("-5", "1000000"))


@pytest.mark.parametrize("table", ["darts", "rotations"])
@pytest.mark.parametrize("key", ODD_KEYS, ids=ODD_KEY_IDS)
def test_each_key_loads_as_with_the_round_trip(key, table, monkeypatch):
    base = json.loads(list(loader_bases())[0])
    base[table] = {(key if k == "1" else k): v
                   for k, v in base[table].items()}
    text = json.dumps(base, indent=2)
    got = outcome(loads_drawing, text)
    monkeypatch.setattr(docio, "_ids", oracle_ids)
    assert got == outcome(loads_drawing, text)
    if key not in ("-5", "1000000"):
        assert got[0] is ParseError and "canonical decimal" in got[1]


def test_a_non_ascii_digit_is_refused_by_the_python_scanner(monkeypatch):
    # the C scanner reads ASCII digits only; the pure-Python one reads
    # every Unicode digit, so "1٣" would come back as 13
    decoder = json._default_decoder
    monkeypatch.setattr(decoder, "scan_once",
                        json.scanner.py_make_scanner(decoder))
    assert json.loads("[1٣]") == [13]
    for keys in (["1٣"], ["0", "1٣"], ["٣"]):
        want = ids_outcome(oracle_ids, keys, "darts")
        assert ids_outcome(docio._ids, keys, "darts") == want
        assert "canonical decimal" in want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.text("0123456789-+.e,[]\" \t٣", max_size=6),
                min_size=1, max_size=4, unique=True))
def test_drawn_keys_give_the_ids_of_the_round_trip(keys):
    want = ids_outcome(oracle_ids, keys, "darts")
    assert ids_outcome(docio._ids, keys, "darts") == want


# --- members counted, against the per-key check --------------------------------

# (table, changes to entries by index, expected message); a change maps a
# member key to its new value, or to None to drop it
MEMBER_CASES = {
    "dart respelled": (
        "darts", {0: {"origin": None, "oriign": 0}},
        'darts["0"] has unknown key "oriign"'),
    "vertex respelled, no kind": (
        "vertices", {3: {"kind": None, "knid": "real"}},
        'vertices[3] has unknown key "knid"'),
    "base edge respelled": (
        "base_edges", {0: {"dart_path": None, "dart_pth": [0]}},
        'base_edges[0] has unknown key "dart_pth"'),
    # one entry's worth of members too many
    "dart with two extra keys": (
        "darts", {5: {"x": 0, "y": 0}}, 'darts["5"] has unknown key "x"'),
    "two darts with an extra key each": (
        "darts", {1: {"x": 0}, 2: {"y": 0}}, 'darts["1"] has unknown key "x"'),
    "vertex with an extra key": (
        "vertices", {2: {"x": 0}}, 'vertices[2] has unknown key "x"'),
    "base edge with three extra keys": (
        "base_edges", {1: {"x": 0, "y": 0, "z": 0}},
        'base_edges[1] has unknown key "x"'),
    "dart extra beside a dart missing": (
        "darts", {0: {"origin": None}, 1: {"x": 0}},
        'darts["1"] has unknown key "x"'),
    "dart extra and missing in one entry": (
        "darts", {2: {"origin": None, "x": 0, "y": 0}},
        'darts["2"] has unknown key "x"'),
    "vertex extra beside a vertex missing": (
        "vertices", {0: {"id": None}, 4: {"x": 0}},
        'vertices[4] has unknown key "x"'),
    "vertex extra beside a kind left out": (
        "vertices", {0: {"kind": None}, 1: {"x": 0}},
        'vertices[1] has unknown key "x"'),
    "base edge extra beside a base edge missing": (
        "base_edges", {1: {"endpoints": None}, 0: {"x": 0}},
        'base_edges[0] has unknown key "x"'),
    # no unknown key: the twin column's type fault comes before the
    # missing origin, as it did
    "dart twin retyped beside a dart missing": (
        "darts", {0: {"twin": "1"}, 3: {"origin": None}},
        'darts["0"].twin must be an integer, not "1"'),
    "vertex kind left out": (
        "vertices", {0: {"kind": None}}, None),
}


def changed(text, table, changes):
    doc = json.loads(text)
    entries = doc[table]
    if table == "darts":
        entries = list(entries.values())
    for index, change in changes.items():
        for key, value in change.items():
            entries[index].pop(key, None)
            if value is not None:
                entries[index][key] = value
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("case", MEMBER_CASES)
def test_members_are_counted_as_the_keys_were_checked(case):
    table, changes, message = MEMBER_CASES[case]
    for base in loader_bases():
        text = changed(base, table, changes)
        got = outcome(loads_drawing, text)
        assert got == outcome(hooked_loads, text)
        if message is None:
            assert got == base
        else:
            assert got == (ParseError, message)


def test_tables_of_known_members_are_not_checked_key_by_key(monkeypatch):
    checked = []
    check_keys = docio._check_keys

    def counted(names, entries, allowed):
        checked.append(allowed)
        return check_keys(names, entries, allowed)
    monkeypatch.setattr(docio, "_check_keys", counted)
    for base in loader_bases():
        doc = json.loads(base)
        del doc["vertices"][0]["kind"]
        for text in (base, json.dumps(doc)):
            loads_drawing(text)
            assert checked == [docio._DOCUMENT_KEYS]
            checked.clear()
