"""Tests for the drawing layer: validation diagnostics and analyses.

Small fixtures are built by hand at the dart level; each validate()
test targets exactly one diagnostic code.  Structural analyses are
exercised both on the tiny fixtures and on generated drawings.
"""

from collections import deque

import pytest

from optiplanar import (
    Drawing,
    PlaneMultigraph,
    crossing_components,
    crossing_graph,
    crossing_histogram,
    double_crossing_pairs,
    dodecahedron,
    empty_true_planar_triangle,
    generate_optimal,
    homotopic_duplicates,
    is_fan_planar,
    is_k_planar,
    is_quasi_planar,
    is_simple,
    odd_true_planar_cycle,
    remove_base_edge,
    skeleton_edge_ids,
    theta_hexangulation,
    theta_pentagulation,
    true_planar_skeleton,
    validate,
)


def codes(diagnostics):
    return [diag.code for diag in diagnostics]


def plus_sign(rotation_at_crossing=(1, 5, 2, 6), crossings=(4,)):
    """Two base edges 0-2 and 1-3 meeting once at crossing vertex 4."""
    rot = {
        0: [0],
        1: [4],
        2: [3],
        3: [7],
        4: list(rotation_at_crossing),
    }
    twin = {0: 1, 2: 3, 4: 5, 6: 7}
    plane = PlaneMultigraph(rot, twin)
    return Drawing(plane, crossings,
                   {0: (0, 2), 1: (1, 3)},
                   {0: (0, 2), 1: (4, 6)})


def cycle_drawing(n, base_edges=None):
    """C_n drawn without crossings; base_edges selects a subset."""
    rot = {i: [2 * i, 2 * ((i - 1) % n) + 1] for i in range(n)}
    twin = {2 * i: 2 * i + 1 for i in range(n)}
    plane = PlaneMultigraph(rot, twin)
    if base_edges is None:
        base_edges = range(n)
    return Drawing(plane, (),
                   {e: (e, (e + 1) % n) for e in base_edges},
                   {e: (2 * e,) for e in base_edges})


def test_plus_sign_is_a_valid_drawing():
    d = plus_sign()
    assert validate(d) == []
    assert d.real_vertices == frozenset({0, 1, 2, 3})
    assert d.crossing_vertices == frozenset({4})
    assert crossing_histogram(d) == {1: 2}
    assert not is_k_planar(d, 0)
    assert is_k_planar(d, 1)
    assert is_k_planar(d, 2)
    assert is_simple(d)
    assert is_quasi_planar(d)
    assert is_fan_planar(d)
    assert double_crossing_pairs(d) == ()


def test_plus_sign_crossing_graph():
    d = plus_sign()
    xg = crossing_graph(d)
    assert xg.nodes == (0, 1)
    assert xg.multiplicity == {frozenset({0, 1}): 1}
    assert crossing_components(d) == (frozenset({0, 1}),)


def test_plus_sign_has_empty_skeleton():
    d = plus_sign()
    assert skeleton_edge_ids(d) == frozenset()
    sk = true_planar_skeleton(d)
    assert (sk.n, sk.m) == (4, 0)
    assert not sk.is_connected()


def test_isolated_vertex_diagnostic():
    rot = {0: [0], 1: [4], 2: [3], 3: [7], 4: [1, 5, 2, 6], 9: []}
    twin = {0: 1, 2: 3, 4: 5, 6: 7}
    plane = PlaneMultigraph(rot, twin)
    d = Drawing(plane, (4,), {0: (0, 2), 1: (1, 3)}, {0: (0, 2), 1: (4, 6)})
    assert codes(validate(d)) == ["IsolatedVertex"]
    assert validate(d)[0].witness == (9,)


def test_bad_crossing_degree_diagnostic():
    # a path 0-4-2 whose middle vertex is declared a crossing
    rot = {0: [0], 4: [1, 2], 2: [3]}
    twin = {0: 1, 2: 3}
    plane = PlaneMultigraph(rot, twin)
    d = Drawing(plane, (4,), {0: (0, 2)}, {0: (0, 2)})
    assert codes(validate(d)) == ["BadCrossingDegree"]


def test_self_crossing_edge_diagnostic():
    # one base edge 0-1 that crosses itself at vertex 2
    rot = {0: [0], 1: [5], 2: [1, 3, 2, 4]}
    twin = {0: 1, 2: 3, 4: 5}
    plane = PlaneMultigraph(rot, twin)
    d = Drawing(plane, (2,), {0: (0, 1)}, {0: (0, 2, 4)})
    assert codes(validate(d)) == ["SelfCrossingEdge"]


def test_vertex_on_edge_diagnostic():
    # same picture as the plus sign but vertex 4 claimed to be real
    d = plus_sign(crossings=())
    assert codes(validate(d)) == ["VertexOnEdge", "VertexOnEdge"]


def test_orphan_segment_unused():
    d = cycle_drawing(5, base_edges=range(4))
    problems = validate(d)
    assert codes(problems) == ["OrphanSegment"]
    assert problems[0].witness == (8, 9)


def test_orphan_segment_shared():
    rot = {i: [2 * i, 2 * ((i - 1) % 5) + 1] for i in range(5)}
    twin = {2 * i: 2 * i + 1 for i in range(5)}
    plane = PlaneMultigraph(rot, twin)
    base = {e: (e, (e + 1) % 5) for e in range(5)}
    paths = {e: (2 * e,) for e in range(5)}
    base[5] = (0, 1)
    paths[5] = (0,)
    d = Drawing(plane, (), base, paths)
    problems = validate(d)
    assert codes(problems) == ["OrphanSegment"]
    assert "2 edge paths" in problems[0].message


def test_tangential_crossing_diagnostic():
    d = plus_sign(rotation_at_crossing=(1, 2, 5, 6))
    problems = validate(d)
    assert codes(problems) == ["TangentialCrossing"]
    assert problems[0].witness == (4, 0, 1)


def test_constructor_rejects_structural_garbage():
    rot = {0: [0], 4: [1, 2], 2: [3]}
    twin = {0: 1, 2: 3}
    plane = PlaneMultigraph(rot, twin)
    with pytest.raises(ValueError):
        Drawing(plane, (), {0: (0, 2)}, {0: (0,)})  # chain stops early
    with pytest.raises(ValueError):
        Drawing(plane, (), {0: (0, 2)}, {0: (2, 0)})  # broken chain
    with pytest.raises(ValueError):
        Drawing(plane, (), {0: (0, 2)}, {1: (0, 2)})  # id mismatch
    with pytest.raises(ValueError):
        Drawing(plane, (2,), {0: (0, 2)}, {0: (0, 2)})  # ends at crossing
    with pytest.raises(ValueError):
        Drawing(plane, (9,), {0: (0, 2)}, {0: (0, 2)})  # unknown vertex


def test_homotopic_parallel_pair_is_reported():
    # an empty lens between two parallel edges
    plane = PlaneMultigraph({0: [0, 2], 1: [3, 1]}, {0: 1, 2: 3})
    d = Drawing(plane, (), {0: (0, 1), 1: (0, 1)}, {0: (0,), 1: (2,)})
    assert validate(d) == []
    assert homotopic_duplicates(d) == [("pair", 0, 1)]


def test_contractible_loop_is_reported():
    # a loop at vertex 0 with nothing inside, plus a pendant edge
    plane = PlaneMultigraph({0: [0, 1, 2], 1: [3]}, {0: 1, 2: 3})
    d = Drawing(plane, (), {0: (0, 0), 1: (0, 1)}, {0: (0,), 1: (2,)})
    assert validate(d) == []
    assert homotopic_duplicates(d) == [("loop", 0)]


def test_generated_drawings_have_no_homotopic_duplicates():
    for d in (generate_optimal(2, theta_pentagulation(4)),
              generate_optimal(3, theta_hexangulation(3)),
              generate_optimal(2, dodecahedron())):
        assert homotopic_duplicates(d) == []


def test_theta_pentagulation_crossing_structure():
    d = generate_optimal(2, theta_pentagulation(2))
    assert validate(d) == []
    assert len(d.base_edges) == 15
    # 5 skeleton singletons plus one 5-chord component per face
    comps = crossing_components(d)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 1, 1, 1, 1, 5, 5]
    assert double_crossing_pairs(d) == ()
    assert crossing_histogram(d) == {0: 5, 2: 10}
    assert is_fan_planar(d)
    assert is_quasi_planar(d)


def test_theta_hexangulation_crossing_structure():
    d = generate_optimal(3, theta_hexangulation(2))
    assert validate(d) == []
    assert len(d.base_edges) == 22
    assert crossing_histogram(d) == {0: 6, 2: 4, 3: 12}
    assert is_k_planar(d, 3)
    assert not is_k_planar(d, 2)
    assert is_quasi_planar(d)


def test_remove_chord_heals_its_crossings():
    d = generate_optimal(2, dodecahedron())
    hist = crossing_histogram(d)
    assert hist == {0: 30, 2: 60}
    chord = min(e for e in d.base_edges
                if e not in skeleton_edge_ids(d))
    smaller = remove_base_edge(d, chord)
    assert validate(smaller) == []
    assert len(smaller.base_edges) == 89
    assert len(smaller.crossing_vertices) == 58
    assert crossing_histogram(smaller) == {0: 30, 1: 2, 2: 57}


def test_remove_skeleton_edge_keeps_drawing_valid():
    d = generate_optimal(2, theta_pentagulation(2))
    sk_edge = min(skeleton_edge_ids(d))
    smaller = remove_base_edge(d, sk_edge)
    assert validate(smaller) == []
    assert len(smaller.base_edges) == 14
    assert is_k_planar(smaller, 2)
    with pytest.raises(KeyError):
        remove_base_edge(d, 10 ** 9)


def test_odd_cycle_found_in_dodecahedral_skeleton():
    d = generate_optimal(2, dodecahedron())
    walk = odd_true_planar_cycle(d)
    assert walk == bfs_odd_cycle(true_planar_skeleton(d)) == (0, 1, 2, 3, 4)
    assert len(walk) % 2 == 1
    sk_ids = skeleton_edge_ids(d)
    assert all(d.edge_of_dart(dart) in sk_ids for dart in walk)
    for a, b in zip(walk, walk[1:] + walk[:1]):
        assert d.plane.head(a) == d.plane.origin(b)


def test_bipartite_skeleton_has_no_odd_cycle():
    d = generate_optimal(3, theta_hexangulation(3))
    assert odd_true_planar_cycle(d) is None


def bfs_odd_cycle(sk):
    """Oracle: an odd closed walk of a plane graph by BFS 2-colouring.

    Returns a chained dart tuple, or None when the graph is bipartite.
    Two vertices of one colour joined by a dart close an odd cycle with
    their two tree paths, spliced below their last common dart.
    """
    color, parent = {}, {}

    def up_path(v):
        # darts walking from v towards the BFS root
        out = []
        while v in parent:
            dart = parent[v]
            out.append(sk.twin(dart))
            v = sk.origin(dart)
        return out

    for root in sorted(sk.vertices):
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for dart in sk.rotation(v):
                w = sk.head(dart)
                if w == v:
                    return (dart,)  # a self-loop is an odd cycle
                if w not in color:
                    color[w] = 1 - color[v]
                    parent[w] = dart
                    queue.append(w)
                elif color[w] == color[v]:
                    a, b = up_path(v), up_path(w)
                    while a and b and a[-1] == b[-1]:
                        a.pop()
                        b.pop()
                    return tuple([sk.twin(x) for x in reversed(a)]
                                 + [dart] + b)
    return None


def assert_odd_closed_walk(walk, plane):
    assert len(walk) % 2 == 1
    for a, b in zip(walk, walk[1:] + walk[:1]):
        assert plane.head(a) == plane.origin(b)


def odd_cycle_inputs():
    """Generated drawings, their single-edge deletions, hand-made ones."""
    swept = [generate_optimal(2, theta_pentagulation(8)),
             generate_optimal(2, dodecahedron())]
    swept += [generate_optimal(3, theta_hexangulation(3), missing_middle=mm)
              for mm in (0, 1, 2)]
    yield from swept
    yield from (generate_optimal(2, theta_pentagulation(p)) for p in (2, 4))
    yield from (generate_optimal(3, theta_hexangulation(p), missing_middle=mm)
                for p in (1, 2) for mm in (0, 1, 2))
    for d in swept:
        for e in sorted(d.base_edges):
            yield remove_base_edge(d, e)
    # a non-simple face
    yield Drawing.from_plane(theta_hexangulation(1))
    # a self-loop whose face is the loop alone, and one around a pendant
    yield Drawing.from_plane(PlaneMultigraph({0: [1, 0, 2], 1: [3]},
                                             {0: 1, 2: 3}))
    yield Drawing.from_plane(PlaneMultigraph({0: [0, 1, 2], 1: [3]},
                                             {0: 1, 2: 3}))
    # disconnected skeletons: a square and a triangle, two squares, and
    # the isolated ends of two crossing edges
    yield Drawing.from_plane(PlaneMultigraph.from_faces(
        [[0, 1, 2, 3], [0, 3, 2, 1], [4, 5, 6], [4, 6, 5]]))
    yield Drawing.from_plane(PlaneMultigraph.from_faces(
        [[0, 1, 2, 3], [0, 3, 2, 1], [4, 5, 6, 7], [4, 7, 6, 5]]))
    yield plus_sign()
    yield cycle_drawing(5)


def test_odd_cycle_agrees_with_bfs_colouring():
    seen = {None: 0, "odd": 0}
    for d in odd_cycle_inputs():
        sk = true_planar_skeleton(d)
        walk = odd_true_planar_cycle(d)
        expected = bfs_odd_cycle(sk)
        assert (walk is None) == (expected is None), d
        if expected is None:
            seen[None] += 1
            continue
        seen["odd"] += 1
        assert_odd_closed_walk(expected, sk)
        assert walk in {w.darts for w in sk.faces()}
        assert_odd_closed_walk(walk, d.plane)
        sk_ids = skeleton_edge_ids(d)
        assert all(d.edge_of_dart(dart) in sk_ids for dart in walk)
    assert seen[None] > 100 and seen["odd"] > 100


def test_odd_cycle_of_a_self_loop_face_is_the_loop():
    d = Drawing.from_plane(PlaneMultigraph({0: [1, 0, 2], 1: [3]},
                                           {0: 1, 2: 3}))
    assert odd_true_planar_cycle(d) == (0,)


def test_empty_triangle_detection():
    bare = cycle_drawing(3)
    assert validate(bare) == []
    walk = empty_true_planar_triangle(bare)
    assert walk is not None and walk.length == 3
    assert empty_true_planar_triangle(
        generate_optimal(2, dodecahedron())) is None
