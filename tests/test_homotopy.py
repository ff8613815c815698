"""Tests for the homotopy decision, ``plane.homotopic_curves``.

Each loop and each class of parallel paths is keyed by the corners of a
spanning tree T that its paths leave their ends in; the rule and why it
is exact are in the ``plane`` module docstring.  Expected answers come
from construction: lens fans with pendant vertices in chosen lenses, and
loops at one vertex with pendant vertices on chosen sides.  Two oracles
stay: the pairwise region rule (``curve_is_contractible`` on each
parallel pair closed into one curve), and ``method_homotopic_curves``,
the routine that the corner keys replaced (a flood per loop, a lens
decomposition per class and the region rule as fallback, through the
graph's accessor methods).  Both are exact except on loop pairs, which
close into a curve that touches itself, so loop pairs are checked
against their sides instead.  Relabelling vertex and dart ids moves T's
root and breadth-first order, and must not change an answer.  Each
planarization component is a sphere of its own, so a class's answer is
its answer with every other component deleted.
"""

import json
import random
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optiplanar.plane
from optiplanar import (
    Drawing,
    PlaneMultigraph,
    check_optimal_2planar,
    check_optimal_3planar,
    dodecahedron,
    dumps_drawing,
    generate_optimal,
    homotopic_duplicates,
    remove_base_edge,
    skeleton_edge_ids,
    theta_hexangulation,
    theta_pentagulation,
    true_planar_skeleton,
)
from optiplanar import docio
from optiplanar.cli import main
from optiplanar.errors import HomotopicSkeleton
from optiplanar.plane import (
    _check_closed,
    _tree_corners,
    curve_is_contractible,
    homotopic_curves,
)
from test_cli import relabelled, skeleton_file, sparse
from test_memo import CountingMemo


def closed_pair(d, e1, e2):
    """e1 forward, then e2 back from e1's head to its tail."""
    if d.base_edges[e2] == d.base_edges[e1]:
        tail = [d.plane.twin(x) for x in reversed(d.edge_paths[e2])]
    else:
        tail = list(d.edge_paths[e2])
    return list(d.edge_paths[e1]) + tail


def closed_darts(g, a, b):
    """Dart a forward, then b's edge back from a's head to its tail."""
    return [a, b if g.origin(b) == g.head(a) else g.twin(b)]


def pairwise_oracle(d):
    """homotopic_duplicates with one contractibility flood per curve."""
    real = d.real_vertices
    out = []
    groups = {}
    for e in sorted(d.base_edges):
        u, v = d.base_edges[e]
        groups.setdefault(tuple(sorted((u, v))), []).append(e)
        if u == v and curve_is_contractible(d.plane, d.edge_paths[e],
                                            real=real):
            out.append(("loop", e))
    for key in sorted(groups):
        edges = groups[key]
        for i, e1 in enumerate(edges):
            for e2 in edges[i + 1:]:
                if curve_is_contractible(d.plane, closed_pair(d, e1, e2),
                                         real=real):
                    out.append(("pair", e1, e2))
    return out


# --- the routine before corner keys, as an oracle ---------------------------
# A flood per loop, a lens decomposition per class of parallel paths and
# the pairwise region rule where the lens argument does not apply, every
# lookup through an accessor method.  Its answers are the package's until
# corner keys replaced it; they differ only on loop pairs.


def method_flood(g, seed, cut):
    faces, face_of, twin = g.faces(), g.face_of, g.twin
    seen = {seed}
    queue = deque([seed])
    while queue:
        i = queue.popleft()
        yield i
        for d in faces[i].darts:
            if d in cut:
                continue
            j = face_of(twin(d))
            if j not in seen:
                seen.add(j)
                queue.append(j)


def method_curve_is_contractible(g, curve, *, real):
    _check_closed(g, curve)
    cut = {half for d in curve for half in (d, g.twin(d))}
    on_curve = {g.origin(d) for d in curve}
    region = None
    for v in real:
        ds = g.rotation(v)
        if not ds or v in on_curve:
            continue
        face = g.face_of(ds[0])
        if region is None:
            region = set(method_flood(g, face, cut))
        elif face not in region:
            return False
    return True


def method_lens_class_pairs(g, curves, *, real):
    if len(curves) < 2:
        return []
    u, v = g.origin(curves[0][0]), g.head(curves[0][-1])
    if u == v or not g.is_connected():
        return None
    oriented = []
    cut = set()
    interior = set()
    for curve in curves:
        if g.origin(curve[0]) != u:
            curve = [g.twin(d) for d in reversed(curve)]
        for d in curve[:-1]:
            w = g.head(d)
            if w == u or w == v or w in interior or w in real:
                return None
            interior.add(w)
        for d in curve:
            if d in cut:
                return None
            cut.add(d)
            cut.add(g.twin(d))
        oriented.append(curve)
    faces = g.faces()

    def lens_is_empty(curve):
        for i in method_flood(g, g.face_of(curve[0]), cut):
            for w in faces[i].vertices:
                if w != u and w != v and w in real:
                    return False
        return True

    empty_before = [lens_is_empty(curve) for curve in oriented]
    if not any(empty_before):
        return []
    first = {curve[0]: k for k, curve in enumerate(oriented)}
    order = [first[d] for d in g.rotation(u) if d in first]
    c = len(order)
    start = next((t for t in range(c) if not empty_before[order[t]]), 0)
    classes = []
    for t in range(start, start + c):
        k = order[t % c]
        if t == start or not empty_before[k]:
            classes.append([])
        classes[-1].append(k)
    pairs = []
    for ks in classes:
        ks.sort()
        pairs.extend((i, j) for a, i in enumerate(ks) for j in ks[a + 1:])
    return sorted(pairs)


def method_homotopic_curves(g, curves, *, real):
    out = []
    groups = {}
    for i in sorted(curves):
        path = curves[i]
        u, v = g.origin(path[0]), g.head(path[-1])
        groups.setdefault((u, v) if u <= v else (v, u), []).append(i)
        if u == v and method_curve_is_contractible(g, path, real=real):
            out.append(("loop", i))
    for key in sorted(groups):
        ids = groups[key]
        paths = [curves[i] for i in ids]
        pairs = method_lens_class_pairs(g, paths, real=real)
        if pairs is None:
            pairs = []
            for a, first in enumerate(paths):
                for b in range(a + 1, len(paths)):
                    second = paths[b]
                    if g.origin(second[0]) != g.head(first[-1]):
                        second = [g.twin(d) for d in reversed(second)]
                    if method_curve_is_contractible(g, [*first, *second],
                                                    real=real):
                        pairs.append((a, b))
        out.extend(("pair", ids[a], ids[b]) for a, b in pairs)
    return out


def assert_matches_method_routine(g, curves, real):
    assert homotopic_curves(g, curves, real=real) == method_homotopic_curves(
        g, curves, real=real)


def assert_drawing_matches_method_routine(d):
    assert_matches_method_routine(d.plane, d.edge_paths, d.real_vertices)
    skeleton = true_planar_skeleton(d)
    assert_matches_method_routine(
        skeleton, {dart: (dart,) for dart in skeleton.edges},
        skeleton.vertices)


def with_pendants(rot, twin, spots):
    """Hang a pendant vertex in each (vertex, rotation position) corner.

    A pendant edge in a corner adds one vertex and one edge to a face, so
    the result is still a sphere embedding.
    """
    rot = {v: list(ds) for v, ds in rot.items()}
    twin = dict(twin)
    next_dart = 1 + max(twin.keys() | twin.values())
    next_vertex = 1 + max(rot)
    for v, pos in sorted(spots, key=lambda s: (s[0], -s[1])):
        rot[v].insert(pos % (len(rot[v]) + 1), next_dart)
        rot[next_vertex] = [next_dart + 1]
        twin[next_dart] = next_dart + 1
        next_dart += 2
        next_vertex += 1
    return rot, twin


def with_detached_edges(rot, twin, count):
    """Add ``count`` edges, each between two new vertices, so that each is
    a planarization component of its own."""
    rot, twin = dict(rot), dict(twin)
    dart = 1 + max(twin.keys() | twin.values())
    vertex = 1 + max(rot)
    for _ in range(count):
        rot[vertex], rot[vertex + 1] = [dart], [dart + 1]
        twin[dart] = dart + 1
        dart += 2
        vertex += 2
    return rot, twin


def only_component(d, v):
    """d without every planarization component but the one holding
    vertex v; edge ids are kept."""
    g = d.plane
    rot = {w: g.rotation(w) for w in g.vertices
           if g.component_of(w) == g.component_of(v)}
    twin = {x: g.twin(x) for ds in rot.values() for x in ds}
    kept = [e for e in d.base_edges if d.edge_paths[e][0] in twin]
    return Drawing(PlaneMultigraph(rot, twin),
                   d.crossing_vertices & rot.keys(),
                   {e: d.base_edges[e] for e in kept},
                   {e: d.edge_paths[e] for e in kept})


def as_drawing(rot, twin, crossings, paths):
    """A Drawing whose base edges are the given paths plus every pendant."""
    plane = PlaneMultigraph(rot, twin)
    used = {x for path in paths for dart in path
            for x in (dart, plane.twin(dart))}
    paths = list(paths)
    for dart in sorted(plane.darts - used):
        if dart not in used:
            paths.append((dart,))
            used |= {dart, plane.twin(dart)}
    base = {e: (plane.origin(p[0]), plane.head(p[-1]))
            for e, p in enumerate(paths)}
    return Drawing(plane, crossings, base, dict(enumerate(paths)))


def lens_fan(c, lens_pendants, subdivide, flips, ids):
    """c parallel edges between vertices 0 and 1 and pendants in lenses.

    Curve k leaves 0 at rotation position k; lens k lies between curves
    k and k + 1 (cyclically).  ``lens_pendants`` lists (lens, at_v)
    pairs: each puts a pendant vertex into that lens, hung from 1 when
    at_v and from 0 otherwise.  With ``subdivide`` every curve runs
    through its own degree-2 crossing vertex.  Curve k becomes base edge
    ``ids[k]``, stored from 1 to 0 when ``flips[k]``.
    """
    rot = {0: [], 1: []}
    twin = {}
    crossings = []
    curves = []
    for k in range(c):
        a, b = 4 * k + 10, 4 * k + 12  # a leaves 0, b leaves 1
        if subdivide:
            x = 2 + k
            crossings.append(x)
            rot[x] = [a + 1, b + 1]
            twin.update({a: a + 1, b: b + 1})
            curves.append((a, b + 1))
        else:
            twin[a] = b
            curves.append((a,))
        rot[0].append(a)
        rot[1].insert(0, b)
    # after curve k at 0 comes lens k; after curve k at 1 comes lens k - 1
    spots = []
    for lens, at_v in lens_pendants:
        if at_v:
            spots.append((1, c - lens - 1))
        else:
            spots.append((0, lens + 1))
    rot, twin = with_pendants(rot, twin, spots)
    half = {**twin, **{b: a for a, b in twin.items()}}
    paths = [None] * c
    for k, curve in enumerate(curves):
        if flips[k]:
            curve = tuple(half[x] for x in reversed(curve))
        paths[ids[k]] = curve
    return as_drawing(rot, twin, crossings, paths)


def fan_expectation(c, lens_pendants, ids):
    """Homotopic id pairs: those with every lens on one side empty."""
    full = {lens for lens, _ in lens_pendants}
    out = []
    for i in range(c):
        for j in range(i + 1, c):
            inside = set(range(i, j))
            if not (inside & full) or full <= inside:
                out.append(tuple(sorted((ids[i], ids[j]))))
    return sorted(out)


@st.composite
def fans(draw):
    c = draw(st.integers(2, 7))
    lens_pendants = draw(st.lists(
        st.tuples(st.integers(0, c - 1), st.booleans()), max_size=c + 2))
    subdivide = draw(st.booleans())
    flips = draw(st.lists(st.booleans(), min_size=c, max_size=c))
    ids = draw(st.permutations(range(c)))
    return c, lens_pendants, subdivide, flips, ids


def relabel(d, seed):
    """d with random sparse vertex, dart and edge ids and every rotation
    rolled by a random amount, which moves T's root and breadth-first
    order; and the map of edge ids.  No validation: fixtures may have
    crossings of degree 2."""
    doc = json.loads(dumps_drawing(d))
    rng = random.Random(repr(seed))
    f = sparse((v["id"] for v in doc["vertices"]), rng, -10 ** 6)
    g = sparse(map(int, doc["darts"]), rng, -10 ** 6)
    h = sparse((e["id"] for e in doc["base_edges"]), rng, 0)

    def roll(rot):
        k = rng.randrange(len(rot)) if rot else 0
        return rot[k:] + rot[:k]
    crossing, darts, twins, _, rotations, edges, ends, paths, _ = \
        docio._read_document(relabelled(doc, f.__getitem__, g.__getitem__,
                                        h.__getitem__, roll))
    plane = PlaneMultigraph(rotations, dict(zip(darts, twins)))
    return Drawing(plane, crossing, dict(zip(edges, ends)),
                   dict(zip(edges, paths))), h


def assert_relabelling_keeps_the_answer(d, seed):
    e, h = relabel(d, seed)
    want = {(kind, *sorted(map(h.__getitem__, ids)))
            for kind, *ids in homotopic_duplicates(d)}
    got = homotopic_duplicates(e)
    assert set(got) == want and len(got) == len(want)


def count_calls(monkeypatch, *names):
    """Count the calls of the named functions of optiplanar.plane."""
    calls = []
    for name in names:
        def counted(*args, _f=getattr(optiplanar.plane, name), **kwargs):
            calls.append(_f.__name__)
            return _f(*args, **kwargs)
        monkeypatch.setattr(optiplanar.plane, name, counted)
    return calls


@settings(deadline=None, max_examples=150)
@given(fans())
def test_lens_fans_match_construction_and_oracle(fan):
    c, lens_pendants, subdivide, flips, ids = fan
    d = lens_fan(c, lens_pendants, subdivide, flips, ids)
    want = [("pair", *p) for p in fan_expectation(c, lens_pendants, ids)]
    assert homotopic_duplicates(d) == want == pairwise_oracle(d)
    assert_drawing_matches_method_routine(d)
    assert_relabelling_keeps_the_answer(d, fan)
    if not subdivide:
        # skeleton style: each curve is the smaller dart of its edge, and
        # T holds one of them, so the ends are renumbered around it
        g = d.plane
        darts = [min(d.edge_paths[e][0], g.twin(d.edge_paths[e][0]))
                 for e in range(c)]
        got = homotopic_curves(g, {k: (x,) for k, x in enumerate(darts)},
                               real=g.vertices)
        assert got == [("pair", i, j) for i, j in combinations(range(c), 2)
                       if curve_is_contractible(
                           g, closed_darts(g, darts[i], darts[j]),
                           real=g.vertices)]
        assert got == want


GENERATED = ["dodecahedron"] + [f"theta2-{p}" for p in (2, 4, 8, 16)] + [
    f"theta3-{p}-{missing}" for p in (2, 3, 5, 8) for missing in (0, 1, 2)]


def generated(name):
    if name == "dodecahedron":
        return generate_optimal(2, dodecahedron())
    family, *args = name.split("-")
    if family == "theta2":
        return generate_optimal(2, theta_pentagulation(int(args[0])))
    return generate_optimal(3, theta_hexangulation(int(args[0])),
                            missing_middle=int(args[1]))


@pytest.mark.parametrize("name", GENERATED)
def test_generated_drawings_match_oracle(name):
    d = generated(name)
    assert homotopic_duplicates(d) == pairwise_oracle(d) == []


def test_mutants_match_oracle():
    for base in (generate_optimal(2, theta_pentagulation(4)),
                 generate_optimal(3, theta_hexangulation(3))):
        for e in sorted(base.base_edges):
            d = remove_base_edge(base, e)
            assert homotopic_duplicates(d) == pairwise_oracle(d)


# --- loops at one vertex, answered by their sides ---------------------------


def loop_answer(d):
    """homotopic_duplicates from construction, for a drawing whose edges
    are loops at vertex 0 and pendant edges from 0.

    A loop's two sides hold the pendant vertices hung between its darts
    in the rotation at 0, one way round or the other.  A loop is
    contractible when a side is empty, and two loops are homotopic when
    they have the same unordered pair of sides.
    """
    g = d.plane
    rot = g.rotation(0)
    hung = {}  # rotation place at 0 -> pendant vertex
    places = {}  # loop edge -> the places between its darts
    for e, (u, v) in d.base_edges.items():
        dart = d.edge_paths[e][0]
        if u == v:
            i, j = sorted((rot.index(dart), rot.index(g.twin(dart))))
            places[e] = range(i + 1, j)
        else:
            hung[rot.index(dart if u == 0 else g.twin(dart))] = u + v
    everyone = frozenset(hung.values())
    sides = {}
    for e, between in places.items():
        inside = frozenset(hung[i] for i in between if i in hung)
        sides[e] = frozenset((inside, everyone - inside))
    return ([("loop", e) for e in sorted(sides) if frozenset() in sides[e]]
            + [("pair", e, f) for e, f in combinations(sorted(sides), 2)
               if sides[e] == sides[f]])


@st.composite
def loop_rotations(draw):
    """A drawing of non-crossing loops at vertex 0 and pendant edges."""
    word = []
    for k in range(draw(st.integers(1, 4))):
        # a loop's darts side by side keep the loops non-crossing, and
        # every non-crossing arrangement is built this way
        at = draw(st.integers(0, len(word)))
        word[at:at] = [2 * k, 2 * k + 1]
    twin = {2 * k: 2 * k + 1 for k in range(len(word) // 2)}
    rot = {0: word}
    for p in range(draw(st.integers(0, 5))):
        dart = 100 + 2 * p
        word.insert(draw(st.integers(0, len(word))), dart)
        twin[dart] = dart + 1
        rot[1 + p] = [dart + 1]
    return Drawing.from_plane(PlaneMultigraph(rot, twin))


@settings(deadline=None, max_examples=300)
@given(loop_rotations(), st.integers())
def test_loops_at_one_vertex_match_their_sides(d, seed):
    assert homotopic_duplicates(d) == loop_answer(d)
    assert_relabelling_keeps_the_answer(d, seed)


LOOP_PAIRS = {  # a loop pair with an empty face between, each a skeleton
    "nested": ({0: [0, 2, 4, 6, 5, 3], 1: [7], 2: [1]},
               {0: 1, 2: 3, 4: 5, 6: 7}),
    "side-by-side": ({0: [2, 6, 3, 4, 8, 5], 1: [7], 2: [9]},
                     {2: 3, 4: 5, 6: 7, 8: 9}),
}


def test_nested_loops_around_one_vertex_are_homotopic():
    # loops {2, 3} and {4, 5} bound the empty face (0, 0) between them and
    # both enclose only vertex 1
    d = Drawing.from_plane(PlaneMultigraph(*LOOP_PAIRS["nested"]))
    assert homotopic_duplicates(d) == [("pair", 1, 2)] == loop_answer(d)


def test_side_by_side_loops_with_an_empty_face_between_are_homotopic():
    d = Drawing.from_plane(PlaneMultigraph(*LOOP_PAIRS["side-by-side"]))
    assert homotopic_duplicates(d) == [("pair", 0, 1)] == loop_answer(d)


@pytest.mark.parametrize("name", LOOP_PAIRS)
def test_homotopic_skeleton_loops_are_named(name, tmp_path, capsys):
    skeleton = PlaneMultigraph(*LOOP_PAIRS[name])
    message = "skeleton has homotopic loops at vertex 0"
    with pytest.raises(HomotopicSkeleton, match=f"^{message}$"):
        generate_optimal(2, skeleton)
    path = skeleton_file(tmp_path, skeleton)
    assert main(["generate", "--class", "2opt",
                 "--skeleton", f"file:{path}"]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")
    pair = "(1, 2)" if name == "nested" else "(0, 1)"
    assert main(["verify", "--class", "2opt", str(path)]) == 1
    assert capsys.readouterr() == (
        f"{path}: NOT optimal 2-planar (n=3, m=4)\n"
        "  FAIL density: m = 4, bound = 5\n"
        "  FAIL face-lengths: skeleton face lengths are [2, 3], need all 5\n"
        "  FAIL chords-per-face: faces with wrong chord counts: "
        "{0: 0, 1: 0, 2: 0}\n"
        f"  FAIL no-homotopic-duplicates: forbidden duplicates: "
        f"[('pair', {pair[1:-1]})]\n", "")


# --- inputs the corner keys leave to the region rule, and loop fixtures ------


def crossing_parallels():
    """Two edges 0-1 that cross each other at vertex 2.

    Edge 0 runs 0 -10-> 2 -12-> 1 and edge 1 runs 0 -14-> 2 -16-> 1;
    they alternate in the rotation at 2.
    """
    rot = {0: [10, 14], 1: [13, 17], 2: [11, 15, 12, 16]}
    twin = {10: 11, 12: 13, 14: 15, 16: 17}
    return rot, twin, [2], [(10, 12), (14, 16)]


def through_real_vertex():
    """Two edges 0-1, one of them passing through the real vertex 2."""
    rot = {0: [10, 14], 1: [15, 13], 2: [11, 12]}
    twin = {10: 11, 12: 13, 14: 15}
    return rot, twin, [], [(10, 12), (14,)]


def two_loops(nested):
    """Two loops at vertex 0, side by side or one inside the other."""
    rot = {0: [10, 12, 13, 11] if nested else [10, 11, 12, 13]}
    return rot, {10: 11, 12: 13}, [], [(10,), (12,)]


def theta_with_far_component():
    """Three parallel edges 0-1 plus a separate edge 2-3."""
    rot = {0: [10, 12, 14], 1: [15, 13, 11], 2: [16], 3: [17]}
    twin = {10: 11, 12: 13, 14: 15, 16: 17}
    return rot, twin, [], [(10,), (12,), (14,)]


FALLBACKS = {
    "crossing": crossing_parallels,
    "loops": lambda: two_loops(False),
    "nested-loops": lambda: two_loops(True),
    "disconnected": theta_with_far_component,
    "through-vertex": through_real_vertex,
}


@settings(deadline=None, max_examples=40)
@given(name=st.sampled_from(sorted(FALLBACKS)),
       spots=st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(0, 5)),
                      max_size=4))
def test_fallback_classes_match_oracle(name, spots):
    rot, twin, crossings, paths = FALLBACKS[name]()
    spots = [(v, pos) for v, pos in spots if v in rot]
    rot, twin = with_pendants(rot, twin, spots)
    d = as_drawing(rot, twin, crossings, paths)
    if "loops" in name:
        assert homotopic_duplicates(d) == loop_answer(d)
    elif name == "disconnected":
        # each component is a sphere of its own
        near = only_component(d, 0)
        assert near.m == d.m - 1
        assert homotopic_duplicates(d) == homotopic_duplicates(near) == \
            pairwise_oracle(near)
        assert_drawing_matches_method_routine(near)
    else:
        assert homotopic_duplicates(d) == pairwise_oracle(d)
        assert_drawing_matches_method_routine(d)
    assert_relabelling_keeps_the_answer(d, (name, spots))


def test_curves_sharing_a_segment_are_homotopic():
    # edge 10-11 given twice, once in each direction, beside edge 12-13
    rot, twin = with_pendants({0: [10, 12], 1: [13, 11]}, {10: 11, 12: 13},
                              [(0, 1), (0, 2)])
    g = PlaneMultigraph(rot, twin)
    curves = {0: (10,), 1: (11,), 2: (12,)}
    assert homotopic_curves(g, curves, real=g.vertices) == [("pair", 0, 1)]
    assert_matches_method_routine(g, curves, g.vertices)


@pytest.mark.parametrize("real, want", [({0, 2, 3}, []),
                                         ({0, 2}, [("pair", 0, 2)])])
def test_classes_with_an_end_outside_real_take_the_region_rule(
        real, want, monkeypatch):
    # 0 =2= 1 with a pendant vertex in each lens; vertex 1 does not count
    g = PlaneMultigraph({0: [0, 2, 4], 1: [3, 6, 1], 2: [5], 3: [7]},
                        {0: 1, 2: 3, 4: 5, 6: 7})
    curves = {d: (d,) for d in (0, 2, 4, 6)}
    calls = count_calls(monkeypatch, "curve_is_contractible")
    assert homotopic_curves(g, curves, real=real) == want
    assert calls == ["curve_is_contractible"]
    assert_matches_method_routine(g, curves, real)


@pytest.mark.parametrize("build", [crossing_parallels, through_real_vertex])
def test_fallback_pairs_with_empty_sides_are_reported(build):
    d = as_drawing(*build())
    assert homotopic_duplicates(d) == pairwise_oracle(d) == [("pair", 0, 1)]


def test_generate_rejects_one_empty_lens_among_three():
    # 0 =3= 1 with a pendant vertex in two of the three lenses
    rot, twin = with_pendants(
        {0: [10, 12, 14], 1: [15, 13, 11]}, {10: 11, 12: 13, 14: 15},
        [(0, 1), (0, 2)])
    skeleton = PlaneMultigraph(rot, twin)
    with pytest.raises(HomotopicSkeleton,
                       match="homotopic parallel edges between 0 and 1"):
        generate_optimal(2, skeleton)


def test_optimal_drawing_needs_no_pairwise_flood(monkeypatch):
    d = generate_optimal(2, theta_pentagulation(64))
    calls = count_calls(monkeypatch, "curve_is_contractible")
    assert homotopic_duplicates(d) == []
    assert calls == []


def test_generate_rejects_an_empty_skeleton_loop():
    # a loop at vertex 0 with nothing inside, plus a pendant edge
    skeleton = PlaneMultigraph({0: [0, 1, 2], 1: [3]}, {0: 1, 2: 3})
    with pytest.raises(HomotopicSkeleton,
                       match="skeleton loop at vertex 0 bounds an empty "
                             "region"):
        generate_optimal(2, skeleton)


# --- the package against the routine before corner keys -------------------


DIFFERENTIAL = ["dodecahedron"] + [f"theta2-{p}" for p in (2, 4, 8)] + [
    f"theta3-{p}-{missing}" for p in (1, 2, 3) for missing in (0, 1, 2)]


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_drawings_and_their_mutants_match_the_method_routine(name):
    base = generated(name)
    assert_drawing_matches_method_routine(base)
    for e in sorted(base.base_edges):
        assert_drawing_matches_method_routine(remove_base_edge(base, e))


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_answers_do_not_depend_on_the_tree(name):
    base = generated(name)
    assert_relabelling_keeps_the_answer(base, name)
    for e in sorted(base.base_edges):
        assert_relabelling_keeps_the_answer(remove_base_edge(base, e),
                                            (name, e))


def crossing_class(c, detached=0):
    """c edges 0-1 with a pendant vertex in every lens, of which edges 0
    and 1 cross once (ROADMAP item 1's adversarial class), beside
    ``detached`` edges of their own."""
    rot, twin, crossings, paths = crossing_parallels()
    rot = {v: list(ds) for v, ds in rot.items()}
    for k in range(2, c):  # edge k runs through the face of 0, 2, 1
        a = 16 + 2 * k
        twin[a] = a + 1
        rot[0].insert(k - 1, a)
        rot[1].insert(1, a + 1)
        paths.append((a,))
    spots = [(v, pos) for v in (0, 1) for pos in range(len(rot[v]))]
    rot, twin = with_pendants(rot, twin, spots)
    return as_drawing(*with_detached_edges(rot, twin, detached), crossings,
                      paths)


@pytest.mark.parametrize("c", range(4, 13))
def test_crossing_class_matches_the_method_routine(c):
    d = crossing_class(c)
    # every face holds a pendant vertex, so no lens is empty
    assert all(set(w.vertices) - set(range(3)) for w in d.plane.faces())
    assert_drawing_matches_method_routine(d)
    assert_relabelling_keeps_the_answer(d, c)


def test_crossing_class_of_400_needs_no_region_rule(monkeypatch):
    d = crossing_class(400)
    calls = count_calls(monkeypatch, "curve_is_contractible", "_flood")
    assert homotopic_duplicates(d) == []
    assert calls == []


@pytest.mark.parametrize("name", LOOP_PAIRS)
def test_loop_reproducers_match_the_method_routine(name):
    # the method routine's region rule misses these pairs, so the
    # answers come from the loops' sides
    d = Drawing.from_plane(PlaneMultigraph(*LOOP_PAIRS[name]))
    assert homotopic_duplicates(d) == loop_answer(d) != []
    assert_relabelling_keeps_the_answer(d, name)


# --- what the verifier no longer does ---------------------------------------


def face_walk_builds(d):
    """Count what is stored in the planarization's memo from now on."""
    d.plane._memo = CountingMemo()
    return d.plane._memo.builds


def test_the_checks_build_no_face_walks_of_the_planarization():
    d = generate_optimal(2, theta_pentagulation(64))
    builds = face_walk_builds(d)
    assert check_optimal_2planar(d).optimal
    assert builds[PlaneMultigraph.faces.__wrapped__] == 0
    d = generate_optimal(3, theta_hexangulation(16))
    builds = face_walk_builds(d)
    assert check_optimal_3planar(d, mode="strict").optimal
    assert builds[PlaneMultigraph.faces.__wrapped__] == 0


def test_no_flood_where_the_tree_reaches_every_counted_vertex(monkeypatch):
    inputs = [generate_optimal(2, theta_pentagulation(64)),
              *(crossing_class(c) for c in range(4, 13)),
              *(Drawing.from_plane(PlaneMultigraph(*LOOP_PAIRS[name]))
                for name in LOOP_PAIRS),
              *(lens_fan(c, [(k, k % 2) for k in range(0, c, 2)], False,
                         [k % 3 == 0 for k in range(c)], range(c))
                for c in range(2, 8))]
    for name in DIFFERENTIAL:
        base = generated(name)
        inputs += [base, *(remove_base_edge(base, e)
                           for e in sorted(base.base_edges))]
    reached = [d for d in inputs
               if not _tree_corners(d.plane, d.real_vertices)[3]]
    assert len(reached) > 300
    calls = count_calls(monkeypatch, "_flood")
    for d in reached:
        homotopic_duplicates(d)
    assert calls == []


# --- each component its own sphere --------------------------------------


@pytest.mark.parametrize("name, want", [("nested", [("pair", 1, 2)]),
                                        ("side-by-side", [("pair", 0, 1)])])
def test_loop_pairs_beside_a_detached_edge_keep_their_pair(name, want):
    d = Drawing.from_plane(PlaneMultigraph(
        *with_detached_edges(*LOOP_PAIRS[name], 1)))
    assert d.plane.n_components == 2
    assert homotopic_duplicates(d) == want == loop_answer(only_component(d, 0))


def test_crossing_parallels_beside_detached_edges_keep_their_pair():
    # T misses vertex 1, so the region rule decides, counting the real
    # vertices of the class's own component only
    rot, twin, crossings, paths = crossing_parallels()
    d = as_drawing(*with_detached_edges(rot, twin, 2), crossings, paths)
    assert d.plane.n_components == 3
    assert homotopic_duplicates(d) == [("pair", 0, 1)]


def test_crossing_class_beside_a_detached_edge_needs_no_region_rule(
        monkeypatch):
    d = crossing_class(200, detached=1)
    calls = count_calls(monkeypatch, "curve_is_contractible", "_flood")
    assert homotopic_duplicates(d) == []
    assert calls == []


def test_theta3_without_a_skeleton_edge_takes_the_region_rule(monkeypatch):
    base = generated("theta3-1-0")
    d = remove_base_edge(base, min(skeleton_edge_ids(base)))
    calls = count_calls(monkeypatch, "curve_is_contractible")
    assert homotopic_duplicates(d) == pairwise_oracle(d)
    assert calls


def test_the_region_rule_runs_exactly_where_the_skeleton_splits_a_component(
        monkeypatch):
    calls = count_calls(monkeypatch, "curve_is_contractible")
    splits = []
    for name in DIFFERENTIAL:
        base = generated(name)
        for d in [base, *(remove_base_edge(base, e)
                          for e in sorted(base.base_edges))]:
            calls.clear()
            homotopic_duplicates(d)
            split = (true_planar_skeleton(d).n_components
                     > d.plane.n_components)
            assert bool(calls) == split
            splits.append(split)
    assert (len(splits), sum(splits)) == (406, 9)
