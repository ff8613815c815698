"""Structures derived from a drawing are computed once per object.

Every memoized function, on a drawing or on its planarization, must
agree with a fresh computation through its ``__wrapped__``, hand back
the same object on a second call, and keep its values apart between a
drawing and the mutants derived from it.
"""

from collections import Counter

import pytest

from optiplanar import (
    assign_crossed_edges_to_faces,
    check_optimal_2planar,
    check_optimal_3planar,
    crossing_graph,
    dodecahedron,
    extend_to_bar1,
    generate_optimal,
    remove_base_edge,
    skeleton_edge_ids,
    theta_hexangulation,
    theta_pentagulation,
    true_planar_skeleton,
    validate,
)
from optiplanar.characterize import _corners
from optiplanar.drawing import Drawing
from optiplanar.plane import PlaneMultigraph


def drawing(d):
    return d


def planarization(d):
    return d.plane


# name -> (memoized function, the object of a drawing it is applied to)
MEMOIZED = {
    "validate": (validate, drawing),
    "_transits": (Drawing._transits, drawing),
    "crossing_graph": (crossing_graph, drawing),
    "skeleton_edge_ids": (skeleton_edge_ids, drawing),
    "true_planar_skeleton": (true_planar_skeleton, drawing),
    "_corners": (_corners, drawing),
    "assign_crossed_edges_to_faces": (assign_crossed_edges_to_faces,
                                      drawing),
    "real_vertices": (Drawing.real_vertices.fget, drawing),
    "_edge_of_darts": (Drawing._edge_of_darts, drawing),
    "vertices": (PlaneMultigraph.vertices.fget, planarization),
    "darts": (PlaneMultigraph.darts.fget, planarization),
    "edges": (PlaneMultigraph.edges.fget, planarization),
    "faces": (PlaneMultigraph.faces, planarization),
}

BASES = ["theta2-16", "theta3-16-0", "theta3-16-1", "theta3-16-2",
         "dodecahedron"]


def base_drawing(name):
    if name == "dodecahedron":
        return generate_optimal(2, dodecahedron())
    family, p, *missing = name.split("-")
    if family == "theta2":
        return generate_optimal(2, theta_pentagulation(int(p)))
    return generate_optimal(3, theta_hexangulation(int(p)),
                            missing_middle=int(missing[0]))


def comparable(name, value):
    if name == "true_planar_skeleton":
        return value.faces(), value.n, value.m, value.n_components
    if name == "crossing_graph":
        return value, value.adjacency
    return value


@pytest.mark.parametrize("mutant", [False, True], ids=["base", "mutant"])
@pytest.mark.parametrize("name", BASES)
def test_memoized_values_match_fresh_computation(name, mutant):
    d = base_drawing(name)
    if mutant:
        d = remove_base_edge(d, min(skeleton_edge_ids(d)))
    for fname, (fn, owner) in MEMOIZED.items():
        obj = owner(d)
        first = fn(obj)
        assert fn(obj) is first, fname
        assert comparable(fname, first) == comparable(
            fname, fn.__wrapped__(obj)), fname


def test_accessors_hand_back_the_memoized_object():
    d = generate_optimal(2, theta_pentagulation(4))
    g = d.plane
    assert g.vertices is g.vertices and g.darts is g.darts
    assert g.edges is g.edges and g.faces() is g.faces()
    assert d.real_vertices is d.real_vertices
    assert set(g._memo) == {PlaneMultigraph.vertices.fget.__wrapped__,
                            PlaneMultigraph.darts.fget.__wrapped__,
                            PlaneMultigraph.edges.fget.__wrapped__,
                            PlaneMultigraph.faces.__wrapped__}


class CountingMemo(dict):
    """A memo that counts how often each structure is stored in it."""

    def __init__(self):
        super().__init__()
        self.builds = Counter()

    def __setitem__(self, key, value):
        self.builds[key] += 1
        super().__setitem__(key, value)


def corner_map_builds(d):
    d._memo = CountingMemo()
    return d._memo.builds


def test_strict_3planar_check_assigns_chords_once():
    d = generate_optimal(3, theta_hexangulation(16))
    builds = corner_map_builds(d)
    assert check_optimal_3planar(d).optimal
    assert builds[_corners.__wrapped__] == 1


def test_bar1_extension_assigns_chords_once():
    d = generate_optimal(2, dodecahedron())
    builds = corner_map_builds(d)
    extend_to_bar1(d)
    assert builds[_corners.__wrapped__] == 1


def skeleton_memo_builds(d):
    """Count what is stored in the skeleton's memo from now on."""
    skeleton = true_planar_skeleton(d)
    skeleton._memo = CountingMemo()
    return skeleton._memo.builds


@pytest.mark.parametrize("check, make", [
    (check_optimal_2planar,
     lambda: generate_optimal(2, theta_pentagulation(64))),
    (lambda d: check_optimal_3planar(d, mode="strict"),
     lambda: generate_optimal(3, theta_hexangulation(16))),
], ids=["2opt", "3opt-strict"])
def test_the_checks_build_no_face_walks_of_the_skeleton(check, make):
    d = make()
    builds = skeleton_memo_builds(d)
    assert check(d).optimal
    assert builds[PlaneMultigraph.faces.__wrapped__] == 0
    # the counter sees a build of the face walks
    true_planar_skeleton(d).faces()
    assert builds[PlaneMultigraph.faces.__wrapped__] == 1


def test_mutant_gets_its_own_memo():
    d = generate_optimal(2, theta_pentagulation(4))
    skeleton = true_planar_skeleton(d)
    mutant = remove_base_edge(d, min(skeleton_edge_ids(d)))
    assert mutant._memo is not d._memo
    mutant_skeleton = true_planar_skeleton(mutant)
    assert mutant_skeleton is not skeleton
    assert mutant_skeleton.m == skeleton.m - 1
    assert mutant_skeleton.faces() != skeleton.faces()
    assert true_planar_skeleton(d) is skeleton
