"""The one-pass PlaneMultigraph constructor against a straightforward one.

``reference_build`` is the entry-by-entry builder the package used
before the constructor was reduced to one pass over plain dicts: every
dart checked in its own loop, faces traced through a rotation-successor
map and labelled afterwards, components found through ``head``.  It is
kept here as the oracle.  On valid inputs both must agree on the faces
and their order, every ``face_of``, the components, ``f`` and the edge
set; on broken inputs both must raise the same exception with the same
message.  The allocation guards pin what the constructor no longer
builds unless asked.
"""

import re
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from optiplanar import (
    PlaneMultigraph,
    check_optimal_2planar,
    dodecahedron,
    generate_optimal,
    remove_base_edge,
    theta_hexangulation,
    theta_pentagulation,
)
from optiplanar.errors import DanglingTwin, DuplicateDart, NonZeroGenus
from optiplanar.plane import FaceWalk


def reference_build(rotations, twin):
    """Faces, face_of, component_of, component count, f and edges of a
    rotation system, or the exception describing why it is none."""
    rot = {v: tuple(ds) for v, ds in rotations.items()}
    origin = {}
    for v, ds in rot.items():
        for d in ds:
            if d in origin:
                raise DuplicateDart(f"dart {d} occurs more than once")
            origin[d] = v
    full = {}
    for d, e in twin.items():
        for a, b in ((d, e), (e, d)):
            if a in full and full[a] != b:
                raise DanglingTwin(f"dart {a} has conflicting twins")
            full[a] = b
    for d in origin:
        if d not in full:
            raise DanglingTwin(f"dart {d} has no twin")
        e = full[d]
        if e == d:
            raise DanglingTwin(f"dart {d} is its own twin")
        if e not in origin:
            raise DanglingTwin(f"twin {e} of dart {d} is not a dart")
    for d in full:
        if d not in origin:
            raise DanglingTwin(f"twin map mentions unknown dart {d}")

    rotation_next = {}
    for ds in rot.values():
        rotation_next.update(zip(ds, ds[1:] + ds[:1]))
    faces, face_of = [], {}
    for start in sorted(origin):
        if start in face_of:
            continue
        walk = [start]
        d = rotation_next[full[start]]
        while d != start:
            walk.append(d)
            d = rotation_next[full[d]]
        for d in walk:
            face_of[d] = len(faces)
        faces.append(FaceWalk(darts=tuple(walk),
                              vertices=tuple(origin[d] for d in walk)))

    comp, label = {}, 0
    for v0 in sorted(rot):
        if v0 in comp:
            continue
        comp[v0] = label
        queue = deque([v0])
        while queue:
            v = queue.popleft()
            for d in rot[v]:
                w = origin[full[d]]
                if w not in comp:
                    comp[w] = label
                    queue.append(w)
        label += 1

    n, m2, f = [0] * label, [0] * label, [0] * label
    for v, ds in rot.items():
        c = comp[v]
        n[c] += 1
        m2[c] += len(ds)
        if not ds:
            f[c] += 1
    for walk in faces:
        f[comp[walk.vertices[0]]] += 1
    for c in range(label):
        euler = n[c] - m2[c] // 2 + f[c]
        if euler != 2:
            raise NonZeroGenus(
                f"component {c}: n={n[c]} m={m2[c] // 2} f={f[c]} "
                f"gives n - m + f = {euler}, not 2")
    return {
        "faces": tuple(faces),
        "face_of": face_of,
        "component_of": comp,
        "n_components": label,
        "f": len(faces) + sum(1 for ds in rot.values() if not ds),
        "edges": tuple(sorted(d for d in origin if d < full[d])),
    }


def built(rotations, twin):
    g = PlaneMultigraph(rotations, twin)
    return {
        "faces": g.faces(),
        "face_of": {d: g.face_of(d) for d in g.darts},
        "component_of": {v: g.component_of(v) for v in g.vertices},
        "n_components": g.n_components,
        "f": g.f,
        "edges": g.edges,
    }


def outcome(build, rotations, twin):
    try:
        return build(rotations, twin)
    except (DuplicateDart, DanglingTwin, NonZeroGenus) as exc:
        return (type(exc), str(exc))


def system(g):
    """Rotations and the full twin map of a graph, as plain dicts."""
    return ({v: list(g.rotation(v)) for v in sorted(g.vertices)},
            {d: g.twin(d) for d in sorted(g.darts)})


def half_twin(twin):
    """The twin map given once per edge, from its smaller dart."""
    return {d: e for d, e in twin.items() if d < e}


def drawings():
    out = {f"theta2-{p}": generate_optimal(2, theta_pentagulation(p))
           for p in (2, 8)}
    for p in (1, 4):
        for mm in range(3):
            out[f"theta3-{p}-{mm}"] = generate_optimal(
                3, theta_hexangulation(p), missing_middle=mm)
    out["dodecahedron"] = generate_optimal(2, dodecahedron())
    return out


DRAWINGS = drawings()
INPUTS = {key: system(d.plane) for key, d in DRAWINGS.items()}
INPUTS.update({f"theta2-8-without-{e}":
               system(remove_base_edge(DRAWINGS["theta2-8"], e).plane)
               for e in sorted(DRAWINGS["theta2-8"].base_edges)})
INPUTS["dodecahedron-skeleton"] = system(dodecahedron())
INPUTS["theta3-4-skeleton"] = system(theta_hexangulation(4))


def disjoint_union(*systems):
    """Systems side by side, ids shifted apart, plus an isolated vertex."""
    rotations, twin, shift = {}, {}, 0
    for rot, tw in systems:
        rotations.update({v + shift: [d + shift for d in ds]
                          for v, ds in rot.items()})
        twin.update({d + shift: e + shift for d, e in tw.items()})
        shift += 1000
    rotations[shift] = []
    return rotations, twin


INPUTS["three-components"] = disjoint_union(
    INPUTS["dodecahedron-skeleton"], INPUTS["theta3-1-0"])


@pytest.mark.parametrize("key", sorted(INPUTS))
def test_constructor_matches_the_reference(key):
    rotations, twin = INPUTS[key]
    want = reference_build(rotations, twin)
    assert built(rotations, twin) == want
    # twins given once per edge complete to the same involution
    assert built(rotations, half_twin(twin)) == want


SMALL = ["theta2-2", "theta3-1-0", "dodecahedron", "theta2-8-without-0",
         "three-components"]


@st.composite
def broken_systems(draw):
    rotations, twin = INPUTS[draw(st.sampled_from(SMALL))]
    rotations = {v: list(ds) for v, ds in rotations.items()}
    if draw(st.booleans()):
        twin = half_twin(twin)
    twin = dict(twin)
    vertices = sorted(rotations)
    darts = sorted(twin.keys() | set(twin.values()))
    for _ in range(draw(st.integers(1, 2))):
        v = draw(st.sampled_from(vertices))
        d = draw(st.sampled_from(darts))
        kind = draw(st.sampled_from(
            ["shuffle", "shuffle", "shuffle", "drop", "duplicate", "retwin",
             "untwin", "self-twin", "stray-twin", "stray-pair",
             "lone-dart"]))
        if kind == "shuffle":
            rotations[v] = draw(st.permutations(rotations[v]))
        elif kind == "drop" and rotations[v]:
            rotations[v].pop(draw(st.integers(0, len(rotations[v]) - 1)))
        elif kind == "duplicate":
            rotations[v].insert(draw(st.integers(0, len(rotations[v]))), d)
        elif kind == "retwin":
            twin[d] = draw(st.sampled_from(darts))
        elif kind == "untwin":
            twin.pop(d, None)
        elif kind == "self-twin":
            twin[d] = d
        elif kind == "stray-twin":
            twin[d] = max(darts) + draw(st.integers(1, 3))
        elif kind == "stray-pair":
            twin[max(darts) + 1] = max(darts) + draw(st.integers(2, 3))
        elif kind == "lone-dart":  # a new dart that is its own twin
            rotations[v].append(max(darts) + 1)
            twin[max(darts) + 1] = max(darts) + 1
    return rotations, twin


@settings(max_examples=300, deadline=None)
@given(broken_systems())
def test_broken_systems_fail_like_the_reference(case):
    rotations, twin = case
    assert outcome(built, rotations, twin) == outcome(
        reference_build, rotations, twin)


def test_every_error_kind_is_reached():
    rotations, twin = INPUTS["theta2-2"]
    v = min(rotations)
    cases = [
        ({**rotations, v: rotations[v] + rotations[v][:1]}, twin,
         DuplicateDart),
        (rotations, {**twin, 0: 0}, DanglingTwin),
        ({**rotations, v: rotations[v] + [-1]}, {**twin, -1: -1},
         DanglingTwin),
        (rotations, {**twin, 10 ** 6: 0}, DanglingTwin),
        ({**rotations, v: rotations[v][::-1]}, twin, NonZeroGenus),
        disjoint_union((rotations, twin),
                       ({**rotations, v: rotations[v][::-1]}, twin))
        + (NonZeroGenus,),
    ]
    for rot, tw, exc in cases:
        want = outcome(reference_build, rot, tw)
        assert want[0] is exc
        assert outcome(built, rot, tw) == want


@pytest.mark.parametrize("torus_first", [False, True])
def test_the_euler_sum_names_the_torus_component(torus_first):
    # an edge 0-1 beside one vertex with two interleaved loops, a torus
    edge, torus = [[0], [1]], [[2, 4, 3, 5]]
    rotations = dict(enumerate(torus + edge if torus_first
                               else edge + torus))
    twin = {0: 1, 2: 3, 4: 5}
    message = (f"component {0 if torus_first else 1}: n=1 m=2 f=1 "
               f"gives n - m + f = 0, not 2")
    with pytest.raises(NonZeroGenus, match=f"^{re.escape(message)}$"):
        PlaneMultigraph(rotations, twin)
    assert outcome(built, rotations, twin) == outcome(
        reference_build, rotations, twin)


# --- allocation guards ------------------------------------------------------


def test_vertex_and_dart_sets_are_built_once():
    g = DRAWINGS["theta2-8"].plane
    assert g.vertices is g.vertices
    assert g.darts is g.darts
    assert g.edges is g.edges


def test_a_rejected_mutant_never_builds_its_edge_set():
    d = generate_optimal(2, theta_pentagulation(16))
    for e in sorted(d.base_edges)[::7]:
        mutant = remove_base_edge(d, e)
        assert not check_optimal_2planar(mutant, fail_fast=True).optimal
        # no edge set, and nothing else derived on the graph or drawing
        assert mutant.plane._memo == {} and mutant._memo == {}


def test_one_sweep_operation_traces_only_the_touched_faces(monkeypatch):
    d = generate_optimal(2, theta_pentagulation(16))
    parent = d.plane
    built = []
    trace = PlaneMultigraph._trace_faces
    monkeypatch.setattr(PlaneMultigraph, "_trace_faces",
                        lambda self: built.append(self) or trace(self))
    for e in sorted(d.base_edges)[::5]:
        mutant = remove_base_edge(d, e)
        check_optimal_2planar(mutant, fail_fast=True)
        assert built == []  # no planarization traced in full
        gone = parent.darts - mutant.plane.darts
        touched = {parent.face_of(dart) for dart in gone}
        held = sum(len(parent._walks[i]) for i in touched)
        # every walk is either kept from the parent or traced anew; the
        # new ones cover exactly the surviving darts of touched faces
        kept = {id(walk) for walk in parent._walks}
        traced = sum(len(walk) for walk in mutant.plane._walks
                     if id(walk) not in kept)
        assert traced == held - len(gone) <= held
