"""Tests for the embedded multigraph core."""

import pytest
from hypothesis import given, strategies as st

from optiplanar.errors import (
    DanglingTwin,
    DuplicateDart,
    NonZeroGenus,
    NotLoop,
    NotParallel,
    OpenCurve,
)
from optiplanar.plane import (
    PlaneMultigraph,
    curve_is_contractible,
    is_homotopic_loop,
    is_homotopic_pair,
)


def cycle(n: int) -> PlaneMultigraph:
    """The n-cycle embedded on the sphere; darts 2i, 2i+1 on edge i."""
    rot = {i: [2 * i, 2 * ((i - 1) % n) + 1] for i in range(n)}
    twin = {2 * i: 2 * i + 1 for i in range(n)}
    return PlaneMultigraph.build(rot, twin)


def path(n: int) -> PlaneMultigraph:
    """The path on n vertices."""
    rot = {0: [0], n - 1: [2 * n - 3]}
    for i in range(1, n - 1):
        rot[i] = [2 * i, 2 * i - 1]
    twin = {2 * i: 2 * i + 1 for i in range(n - 1)}
    return PlaneMultigraph.build(rot, twin)


def test_cycle_has_two_pentagonal_faces():
    g = cycle(5)
    assert (g.n, g.m, g.f) == (5, 5, 2)
    walks = g.faces()
    assert [w.length for w in walks] == [5, 5]
    assert walks[0].darts == (0, 2, 4, 6, 8)
    assert walks[0].vertices == (0, 1, 2, 3, 4)
    assert walks[1].darts == (1, 9, 7, 5, 3)
    assert walks[1].vertices == (1, 0, 4, 3, 2)


def test_path_single_face_walks_both_sides():
    g = path(4)
    assert (g.n, g.m, g.f) == (4, 3, 1)
    walk = g.faces()[0]
    assert walk.length == 6
    assert walk.vertices == (0, 1, 2, 3, 2, 1)
    assert not walk.is_simple()


def test_face_lookup_and_successors():
    g = cycle(4)
    for walk in g.faces():
        for i, d in enumerate(walk.darts):
            assert g.face_of(d) == g.face_of(walk.darts[0])
            # the next dart along a face is the rotation successor of
            # the twin
            t = g.twin(d)
            rot = g.rotation(g.origin(t))
            after = rot[(rot.index(t) + 1) % len(rot)]
            assert after == walk.darts[(i + 1) % walk.length]
            assert g.origin(d) == walk.vertices[i]


def test_isolated_vertex_counts_one_face():
    g = PlaneMultigraph.build({0: []}, {})
    assert (g.n, g.m, g.f) == (1, 0, 1)
    assert g.faces() == ()


def test_components_and_connectivity():
    rot = {i: [2 * i, 2 * ((i - 1) % 3) + 1] for i in range(3)}
    rot[7] = []
    twin = {0: 1, 2: 3, 4: 5}
    g = PlaneMultigraph.build(rot, twin)
    assert g.n_components == 2
    assert not g.is_connected()
    assert g.component_of(7) != g.component_of(0)


def test_bare_loop_faces_and_contractibility():
    g = PlaneMultigraph.build({0: [0, 1]}, {0: 1})
    assert (g.n, g.m, g.f) == (1, 1, 2)
    assert [w.length for w in g.faces()] == [1, 1]
    assert is_homotopic_loop(g, frozenset({0, 1}))


def test_loop_around_a_vertex_is_essential():
    # vertex 1 sits inside the loop at 0, vertex 2 outside
    rot = {0: [0, 2, 1, 4], 1: [3], 2: [5]}
    twin = {0: 1, 2: 3, 4: 5}
    g = PlaneMultigraph.build(rot, twin)
    loop = frozenset({0, 1})
    assert not is_homotopic_loop(g, loop)
    with pytest.raises(NotLoop):
        is_homotopic_loop(g, frozenset({2, 3}))


def test_parallel_pair_with_empty_lens_is_homotopic():
    g = PlaneMultigraph.build({0: [0, 2], 1: [3, 1]}, {0: 1, 2: 3})
    e1, e2 = sorted(g.edges, key=min)
    assert is_homotopic_pair(g, e1, e2)


def test_parallel_pair_with_vertices_on_both_sides_is_essential():
    # 0 =2= 1 with a pendant vertex inside each lens region
    rot = {0: [0, 2, 4], 1: [3, 6, 1], 2: [5], 3: [7]}
    twin = {0: 1, 2: 3, 4: 5, 6: 7}
    g = PlaneMultigraph.build(rot, twin)
    pair = sorted((e for e in g.edges
                   if {g.origin(min(e)), g.head(min(e))} == {0, 1}),
                  key=min)
    assert not is_homotopic_pair(g, pair[0], pair[1])
    with pytest.raises(NotParallel):
        is_homotopic_pair(g, pair[0], pair[0])


def test_open_curve_is_rejected():
    g = cycle(4)
    with pytest.raises(OpenCurve):
        curve_is_contractible(g, [0, 2, 4])


def test_duplicate_dart_rejected():
    with pytest.raises(DuplicateDart):
        PlaneMultigraph.build({0: [0, 0], 1: [1]}, {0: 1})


def test_dangling_and_fixed_twins_rejected():
    with pytest.raises(DanglingTwin):
        PlaneMultigraph.build({0: [0], 1: [1]}, {})
    with pytest.raises(DanglingTwin):
        PlaneMultigraph.build({0: [0], 1: [1]}, {0: 0, 1: 1})


def test_torus_rotation_rejected():
    # K4 with one reversed rotation does not embed in the sphere
    planar = PlaneMultigraph.from_faces(
        [(0, 1, 2), (0, 2, 3), (0, 3, 1), (3, 2, 1)]
    )
    rot = {v: list(planar.rotation(v)) for v in planar.vertices}
    twin = {d: planar.twin(d) for d in planar.darts}
    PlaneMultigraph.build(rot, twin)  # sanity: planar as extracted
    rot[3] = list(reversed(rot[3]))
    with pytest.raises(NonZeroGenus):
        PlaneMultigraph.build(rot, twin)


def test_from_faces_round_trips_the_cube():
    faces = [
        (0, 1, 2, 3),
        (1, 0, 4, 5),
        (2, 1, 5, 6),
        (3, 2, 6, 7),
        (0, 3, 7, 4),
        (7, 6, 5, 4),
    ]
    g = PlaneMultigraph.from_faces(faces)
    assert (g.n, g.m, g.f) == (8, 12, 6)
    got = {tuple(w.vertices) for w in g.faces()}
    want = set()
    for face in faces:
        k = min(range(len(face)), key=lambda i: face[i])
        want.add(tuple(face[k:] + face[:k]))
    normalized = set()
    for verts in got:
        k = min(range(len(verts)), key=lambda i: verts[i])
        normalized.add(tuple(verts[k:] + verts[:k]))
    assert normalized == want


def test_from_faces_rejects_inconsistent_orientation():
    with pytest.raises(ValueError):
        PlaneMultigraph.from_faces([(0, 1, 2), (0, 1, 2)])
    with pytest.raises(ValueError):
        PlaneMultigraph.from_faces([(0, 0, 1)])
    with pytest.raises(ValueError):
        PlaneMultigraph.from_faces([(0, 1, 2)])


@given(st.integers(min_value=3, max_value=40))
def test_cycle_invariants(n):
    g = cycle(n)
    assert (g.n, g.m, g.f) == (n, n, 2)
    assert all(w.length == n for w in g.faces())
    assert all(g.degree(v) == 2 for v in g.vertices)


@given(st.integers(min_value=2, max_value=40))
def test_path_invariants(n):
    g = path(n)
    assert (g.n, g.m, g.f) == (n, n - 1, 1)
    assert g.faces()[0].length == 2 * (n - 1)


def test_edge_endpoints_and_edge_of():
    g = cycle(3)
    for e in g.edges:
        d = min(e)
        assert g.edge_of(d) == e
        assert g.edge_endpoints(e) == (g.origin(d), g.head(d))
