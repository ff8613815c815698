"""Local edge deletion against the full rebuild.

``remove_base_edge`` derives the mutant's planarization from its
parent's: it copies the maps and traces again only the faces that held a
deleted dart.  ``rebuilt_without`` below is the deletion as it was before,
rebuilding the whole planarization through ``PlaneMultigraph(rotations,
twin)``; it is kept here as the oracle.  On every input both must agree
on every field of the planarization, the face walks, the edge paths, the
saved bytes and the check reports.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from optiplanar import (
    Drawing,
    PlaneMultigraph,
    check_optimal_2planar,
    check_optimal_3planar,
    dodecahedron,
    dumps_drawing,
    generate_optimal,
    remove_base_edge,
    theta_hexangulation,
    theta_pentagulation,
    validate,
)

FIELDS = ("_rotations", "_twin", "_origin", "_walks", "_face_of",
          "_component_of", "_n_components", "_f")
CHECKS = {2: check_optimal_2planar, 3: check_optimal_3planar}


def rebuilt_without(d, e):
    """Drawing d without base edge e, its planarization built afresh."""
    plane = d.plane
    rot, origin, twin = plane._rotations, plane._origin, plane._twin
    gone_path = d.edge_paths[e]
    dead_vertices = {origin[twin[g]] for g in gone_path[:-1]}
    dead_darts = set(gone_path) | {twin[g] for g in gone_path}
    new_twin = dict(twin)
    new_paths = {g: d.edge_paths[g] for g in sorted(d.base_edges) if g != e}
    for g, old in new_paths.items():
        merged = []
        i = 0
        while i < len(old):
            j = i
            while origin[twin[old[j]]] in dead_vertices:
                j += 1
            if j > i:
                dead_darts.update(old[i + 1:j + 1])
                dead_darts.update(twin[x] for x in old[i:j])
                new_twin[old[i]] = twin[old[j]]
                new_twin[twin[old[j]]] = old[i]
            merged.append(old[i])
            i = j + 1
        new_paths[g] = tuple(merged)
    for dart in dead_darts:
        del new_twin[dart]
    rotations = {v: [dart for dart in ds if dart not in dead_darts]
                 for v, ds in rot.items() if v not in dead_vertices}
    base = {g: uv for g, uv in d.base_edges.items() if g != e}
    return Drawing(PlaneMultigraph(rotations, new_twin),
                   d.crossing_vertices - dead_vertices, base, new_paths,
                   d.metadata)


def assert_same(local, ref, k):
    for name in FIELDS:
        assert getattr(local.plane, name) == getattr(ref.plane, name), name
    # rotations and origins keep the rebuild's order too
    assert list(local.plane._rotations) == list(ref.plane._rotations)
    assert list(local.plane._origin) == list(ref.plane._origin)
    assert local.crossing_vertices == ref.crossing_vertices
    assert local.base_edges == ref.base_edges
    assert local.edge_paths == ref.edge_paths
    assert local.metadata == ref.metadata
    assert local.plane.faces() == ref.plane.faces()
    assert dumps_drawing(local) == dumps_drawing(ref)
    check = CHECKS[k]
    assert check(local, fail_fast=True) == check(ref, fail_fast=True)
    assert check(local) == check(ref)


def deleted(d, e, k):
    """remove_base_edge(d, e), checked against the rebuild."""
    local = remove_base_edge(d, e)
    assert_same(local, rebuilt_without(d, e), k)
    return local


def loop_crossed_twice():
    """A self-loop at vertex 0 that edge 1-2 crosses at 3 and then at 4,
    so that deleting either edge heals a run of two crossings."""
    rot = {0: [10, 15], 1: [20], 2: [25], 3: [21, 11, 22, 12],
           4: [13, 23, 14, 24]}
    twin = {10: 11, 12: 13, 14: 15, 20: 21, 22: 23, 24: 25}
    return Drawing(PlaneMultigraph(rot, twin), (3, 4),
                   {0: (0, 0), 1: (1, 2)}, {0: (10, 12, 14), 1: (20, 22, 24)})


def crossing_parallels():
    """Two edges 0-1 that cross each other at vertex 2 (as in
    test_homotopy)."""
    rot = {0: [10, 14], 1: [13, 17], 2: [11, 15, 12, 16]}
    twin = {10: 11, 12: 13, 14: 15, 16: 17}
    return Drawing(PlaneMultigraph(rot, twin), (2,),
                   {0: (0, 1), 1: (0, 1)}, {0: (10, 12), 1: (14, 16)})


def optimal_inputs():
    out = {f"theta2-{p}": (2, generate_optimal(2, theta_pentagulation(p)))
           for p in (2, 4, 8)}
    for p in (1, 2, 3):
        for mm in range(3):
            out[f"theta3-{p}-{mm}"] = (3, generate_optimal(
                3, theta_hexangulation(p), missing_middle=mm))
    out["dodecahedron"] = (2, generate_optimal(2, dodecahedron()))
    return out


OPTIMAL = optimal_inputs()
CRAFTED = {"loop-crossed-twice": (2, loop_crossed_twice()),
           "crossing-parallels": (2, crossing_parallels())}


@pytest.mark.parametrize("key", sorted(OPTIMAL) + sorted(CRAFTED))
def test_every_single_deletion_matches_the_rebuild(key):
    k, d = {**OPTIMAL, **CRAFTED}[key]
    assert validate(d) == []
    for e in sorted(d.base_edges):
        deleted(d, e, k)


def features(d, e, mutant):
    """The kinds of deletion that removing e from d makes."""
    out = set()
    u, v = d.base_edges[e]
    if u == v:
        out.add("loop")
    if sum(set(uv) == {u, v} for uv in d.base_edges.values()) > 1:
        out.add("parallel")
    if mutant.plane.n_components > d.plane.n_components:
        out.add("split")
    if not mutant.plane.rotation(u) or not mutant.plane.rotation(v):
        out.add("isolated")
    if any(len(d.edge_paths[g]) - len(path) > 1
           for g, path in mutant.edge_paths.items()):
        out.add("run")
    return out


CHAINS = ["theta2-4", "theta3-2-0", "theta3-2-2", "dodecahedron",
          "loop-crossed-twice", "crossing-parallels"]


def test_deletion_chains_match_the_rebuild():
    seen = set()
    for key in CHAINS:
        k, d0 = {**OPTIMAL, **CRAFTED}[key]
        for seed in range(3):
            order = sorted(d0.base_edges)
            random.Random(seed).shuffle(order)
            d = d0
            for e in order:
                mutant = deleted(d, e, k)
                seen |= features(d, e, mutant)
                d = mutant
            assert d.m == 0 and d.plane.m == 0
            assert d.plane.n == d0.n  # every crossing has vanished
    assert seen == {"loop", "parallel", "split", "isolated", "run"}


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["theta3-1-1", "theta2-2", "loop-crossed-twice"]),
       data=st.data())
def test_any_deletion_order_matches_the_rebuild(key, data):
    k, d = {**OPTIMAL, **CRAFTED}[key]
    order = data.draw(st.permutations(sorted(d.base_edges)))
    for e in order[:data.draw(st.integers(1, len(order)))]:
        d = deleted(d, e, k)


def joined_through_real_vertex():
    """theta2 p=2 with two uncrossed edges a-w and w-b, deg(w) >= 3,
    made into one base edge through w, and the id of that edge."""
    d = generate_optimal(2, theta_pentagulation(2))
    ends = d.base_edges
    uncrossed = [e for e in sorted(ends) if not d.is_crossed(e)]
    e1, e2 = next((e1, e2) for e1 in uncrossed for e2 in uncrossed
                  if e1 < e2 and ends[e1][1] == ends[e2][0]
                  and d.plane.degree(ends[e1][1]) >= 3)
    base = {g: uv for g, uv in ends.items() if g not in (e1, e2)}
    paths = {g: p for g, p in d.edge_paths.items() if g not in (e1, e2)}
    joined = max(d.base_edges) + 1
    base[joined] = (ends[e1][0], ends[e2][1])
    paths[joined] = d.edge_paths[e1] + d.edge_paths[e2]
    return Drawing(d.plane, d.crossing_vertices, base, paths), joined


def test_an_invalid_drawing_is_refused_by_its_first_diagnostic():
    d, joined = joined_through_real_vertex()
    first = validate(d)[0]
    assert first.code == "VertexOnEdge"
    for e in (joined, min(d.base_edges)):
        with pytest.raises(ValueError) as err:
            remove_base_edge(d, e)
        assert str(err.value) == f"drawing fails validation: {first}"


def test_isolated_vertices_do_not_block_deletion():
    d = crossing_parallels()
    bare = remove_base_edge(remove_base_edge(d, 0), 1)
    assert [p.code for p in validate(bare)] == ["IsolatedVertex"] * 2
    assert bare.m == 0 and bare.plane.n == 2
