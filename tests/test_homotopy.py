"""Differential tests for the per-class homotopy check.

``plane.homotopic_curves`` decides a whole parallel class from one lens
decomposition (``plane._lens_class_pairs``); the pairwise oracle closes
every parallel pair into a curve and asks ``curve_is_contractible``, one
full flood per pair.  Both must agree on lens fans whose answer is known
from construction, on generated drawings, and on the inputs that make
the class routine fall back to the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optiplanar.plane
from optiplanar import (
    Drawing,
    PlaneMultigraph,
    dodecahedron,
    generate_optimal,
    homotopic_duplicates,
    remove_base_edge,
    theta_hexangulation,
    theta_pentagulation,
)
from optiplanar.errors import HomotopicSkeleton
from optiplanar.plane import _lens_class_pairs, curve_is_contractible


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


@settings(deadline=None, max_examples=150)
@given(fans())
def test_lens_fans_match_construction_and_oracle(fan):
    c, lens_pendants, subdivide, flips, ids = fan
    d = lens_fan(c, lens_pendants, subdivide, flips, ids)
    want = fan_expectation(c, lens_pendants, ids)
    curves = [d.edge_paths[e] for e in range(c)]
    assert _lens_class_pairs(d.plane, curves, real=d.real_vertices) == want
    assert [("pair", *p) for p in want] == pairwise_oracle(d)
    assert homotopic_duplicates(d) == pairwise_oracle(d)
    if not subdivide:
        # skeleton style: each curve is the smaller dart of its edge
        g = d.plane
        darts = [min(p[0], g.twin(p[0])) for p in curves]
        got = _lens_class_pairs(g, [[x] for x in darts], real=g.vertices)
        assert got == [(i, j) for i in range(c) for j in range(i + 1, c)
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
    real = d.real_vertices
    classes = {}
    for e in sorted(d.base_edges):
        u, v = d.base_edges[e]
        if u != v:
            classes.setdefault(frozenset((u, v)), []).append(e)
    for es in classes.values():
        assert _lens_class_pairs(
            d.plane, [d.edge_paths[e] for e in es], real=real) == []


def test_mutants_match_oracle():
    for base in (generate_optimal(2, theta_pentagulation(4)),
                 generate_optimal(3, theta_hexangulation(3))):
        for e in sorted(base.base_edges):
            d = remove_base_edge(base, e)
            assert homotopic_duplicates(d) == pairwise_oracle(d)


# --- inputs the lens argument does not cover --------------------------------


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
    curves = [d.edge_paths[0], d.edge_paths[1]]
    if name == "disconnected":
        curves.append(d.edge_paths[2])
    assert _lens_class_pairs(d.plane, curves, real=d.real_vertices) is None
    assert homotopic_duplicates(d) == pairwise_oracle(d)


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
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return curve_is_contractible(*args, **kwargs)

    d = generate_optimal(2, theta_pentagulation(64))
    monkeypatch.setattr(optiplanar.plane, "curve_is_contractible", counted)
    assert homotopic_duplicates(d) == []
    assert calls == []


def test_generate_rejects_an_empty_skeleton_loop():
    # a loop at vertex 0 with nothing inside, plus a pendant edge
    skeleton = PlaneMultigraph({0: [0, 1, 2], 1: [3]}, {0: 1, 2: 3})
    with pytest.raises(HomotopicSkeleton,
                       match="skeleton loop at vertex 0 bounds an empty "
                             "region"):
        generate_optimal(2, skeleton)


# --- wrong answers of the pairwise fallback on loop pairs -------------------
# Two loops at one vertex close into a curve that touches itself, where the
# region rule of curve_is_contractible is not exact.  The expected answers
# come from construction; the routine does not give them yet.


@pytest.mark.xfail(strict=True, reason="region rule is wrong for loop pairs")
def test_nested_loops_around_one_vertex_are_homotopic():
    # loops {2, 3} and {4, 5} bound the empty face (0, 0) between them and
    # both enclose only vertex 1
    g = PlaneMultigraph({0: [0, 2, 4, 6, 5, 3], 1: [7], 2: [1]},
                        {0: 1, 2: 3, 4: 5, 6: 7})
    assert homotopic_duplicates(Drawing.from_plane(g)) == [("pair", 1, 2)]


@pytest.mark.xfail(strict=True, reason="region rule is wrong for loop pairs")
def test_side_by_side_loops_with_an_empty_face_between_are_homotopic():
    g = PlaneMultigraph({0: [2, 6, 3, 4, 8, 5], 1: [7], 2: [9]},
                        {2: 3, 4: 5, 6: 7, 8: 9})
    assert homotopic_duplicates(Drawing.from_plane(g)) == [("pair", 0, 1)]
