"""Rotation-system multigraphs embedded on the sphere.

The embedding carrier is a set of darts (directed half-edges, one per edge
end).  Every dart ``d`` has a twin ``twin(d)``, the opposite half of the
same edge, and an origin vertex; the clockwise cyclic order of darts
leaving each vertex (its *rotation*) fixes the embedding.

Face tracing follows one convention throughout the package: the successor
of dart ``d`` along its face is the rotation successor of ``twin(d)``.
The orbits of that permutation partition the darts; each orbit is a face
walk.  Walks may repeat vertices and edges, so non-simple faces (and the
multigraphs that produce them) are first-class citizens.

Self-loops contribute two darts to the same rotation and parallel edges
are unrestricted.  A rotation system is accepted only if every connected
component satisfies Euler's relation ``n - m + f = 2``, i.e. it really
describes an embedding on the sphere.  There is no distinguished outer
face; callers that need one mark a face index externally.

Vertex and dart ids are small integers.  All objects are immutable after
construction; operations that look like mutation return new graphs.
Construction is one pass over plain dicts (origins, the completed twin
involution, face walks, components, Euler's relation on the totals,
and per component only to name one that fails).  A graph derived from
another by deleting darts (``_without``, which edge deletion uses)
copies the dicts and traces again only the faces that lost a dart; its
components and Euler's relation are checked in full.  The ``vertices``,
``darts`` and ``edges`` sets and the ``FaceWalk`` objects are built on
first use and kept through :func:`_once`, the memo that Drawing shares,
so a graph only checked for its size and genus never allocates them.

Homotopy is decided in one place, :func:`homotopic_curves`, in the sphere
punctured at the vertices of ``real`` other than a path's own ends (a
planarization's crossings do not count).  T is the breadth-first
spanning tree of the segments joining two vertices of ``real``.  At a
vertex with k darts of T, numbered 0..k-1 in rotation order, a dart lies
in corner i when dart i of T is the last one at or before it, cyclically
(darts before the first lie in corner k - 1).  A path that ends in
``real`` and passes through none of it lies, but for its ends, in the
open disk S^2 - T, so paths that leave their ends in the same corners
are homotopic.  A loop is contractible exactly when both ends leave the
same corner; otherwise its key is its unordered pair of corners.  A path
from u to v has the key (corner at u, corner at v), unless T's segment t
joins u and v, at places p at u and q at v.  Then corner i at u becomes
((i - p) mod k_u - 1) mod K and corner j at v becomes
(k_u + (j - q) mod k_v - 2) mod K, the K = k_u + k_v - 2 corners around
t contracted to a point; t itself and the paths whose two numbers agree
(all, when K = 0) are homotopic to t, and any other path's key is its
ordered pair of numbers.  Unequal keys are not homotopic: two paths with
the same ends close into a curve whose winding numbers about the
punctures agree within each part of T that it does not touch, and step,
around an end, by +1 past each corner it leaves by and by -1 past each
one it enters by.  The steps cancel only for equal keys (for loops, with
one of them reversed).  Every part of T holds a puncture but t, which is
why t is contracted; that turns a path p into the directed loop p t^-1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, combinations, groupby, repeat
from operator import eq, itemgetter
from typing import AbstractSet, Iterable, Mapping, Sequence

from .errors import (
    DanglingTwin,
    DuplicateDart,
    NonZeroGenus,
    OpenCurve,
)

Vertex = int
Dart = int


def _once(fn):
    """Compute ``fn(obj)`` once per object and keep it in ``obj._memo``.

    A PlaneMultigraph or Drawing never changes after construction, so a
    structure derived from it alone stays valid for the object's
    lifetime.  Every caller gets the same stored object, so no caller may
    mutate it.  ``__wrapped__`` computes the structure afresh.
    """
    @functools.wraps(fn)
    def once(obj):
        try:
            return obj._memo[fn]
        except KeyError:
            value = obj._memo[fn] = fn(obj)
            return value
    return once


@dataclass(frozen=True)
class FaceWalk:
    """One face of an embedded multigraph.

    ``darts[i]`` leaves ``vertices[i]``; position ``i`` of the walk is the
    corner of the face at ``vertices[i]`` between the twin of
    ``darts[i - 1]`` and ``darts[i]``.  The walk starts at its smallest
    dart id, which makes face lists deterministic.
    """

    darts: tuple[Dart, ...]
    vertices: tuple[Vertex, ...]

    @property
    def length(self) -> int:
        return len(self.darts)


class PlaneMultigraph:
    """An immutable sphere-embedded multigraph given by rotations and twins.

    Args:
        rotations: mapping from vertex id to the clockwise sequence of
            darts leaving it.  Vertices with empty rotations are allowed
            (isolated vertices; they count as their own component with a
            single face).
        twin: mapping pairing each dart with its opposite half.  Entries
            may be given once per edge or for both darts; the involution
            is completed and checked either way.

    Raises:
        DuplicateDart: a dart appears twice across the rotations.
        DanglingTwin: the twin map misses a dart, points to an unknown
            dart, has a fixed point, or is not an involution.
        NonZeroGenus: some component violates n - m + f = 2.
    """

    __slots__ = (
        "_rotations", "_twin", "_origin", "_walks", "_face_of",
        "_component_of", "_n_components", "_f", "_memo",
    )

    def __init__(self, rotations: Mapping[Vertex, Sequence[Dart]],
                 twin: Mapping[Dart, Dart]):
        rot: dict[Vertex, tuple[Dart, ...]] = {
            v: tuple(ds) for v, ds in rotations.items()
        }
        origin: dict[Dart, Vertex] = {d: v for v, ds in rot.items() for d in ds}
        if len(origin) != sum(map(len, rot.values())):
            _raise_duplicate_dart(rot)

        # A twin map given for both darts of every edge equals its own
        # inverse; any other map (given once per edge, or faulty) is
        # completed entry by entry, which reports the first fault.
        full = dict(zip(twin.values(), twin))
        if (full != twin or full.keys() != origin.keys()
                or any(map(eq, full, full.values()))):
            full = _checked_twin(twin, origin)

        self._rotations = rot
        self._twin = full
        self._origin = origin
        self._memo: dict = {}
        self._trace_faces()
        self._components()
        self._check_genus()

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_faces(cls, faces: Iterable[Sequence[Vertex]]) -> "PlaneMultigraph":
        """Build a rotation system from consistently oriented face cycles.

        Each face is a cyclic vertex sequence.  Every ordered pair (a, b)
        must occur exactly once over all faces (so the input cannot have
        parallel edges or self-loops); the twin of the dart a->b is the
        dart b->a of the neighboring face.  Rotations are recovered from
        the face successor permutation.
        """
        darts_by_pair: dict[tuple[Vertex, Vertex], Dart] = {}
        face_next: dict[Dart, Dart] = {}
        origin: dict[Dart, Vertex] = {}
        next_id = 0
        for face in faces:
            ids = []
            k = len(face)
            for i in range(k):
                a, b = face[i], face[(i + 1) % k]
                if a == b:
                    raise ValueError("from_faces cannot express self-loops")
                if (a, b) in darts_by_pair:
                    raise ValueError(
                        f"ordered pair {(a, b)} occurs twice; faces are not "
                        "consistently oriented or the graph is not simple")
                darts_by_pair[(a, b)] = next_id
                origin[next_id] = a
                ids.append(next_id)
                next_id += 1
            for i in range(k):
                face_next[ids[i]] = ids[(i + 1) % k]
        twin: dict[Dart, Dart] = {}
        for (a, b), d in darts_by_pair.items():
            try:
                twin[d] = darts_by_pair[(b, a)]
            except KeyError:
                raise ValueError(f"edge {(a, b)} is on only one face") from None
        # The face successor of d must be the rotation successor of twin(d),
        # so the rotation successor of e is face_next[twin(e)].  For
        # e = (a, b) that dart follows (b, a) in its face, so it leaves a:
        # every cycle of sigma stays at one vertex.
        sigma = {e: face_next[twin[e]] for e in origin}
        rotations: dict[Vertex, list[Dart]] = {}
        placed: set[Dart] = set()
        for d in sorted(origin):
            if d in placed:
                continue
            cycle = [d]
            placed.add(d)
            e = sigma[d]
            while e != d:
                cycle.append(e)
                placed.add(e)
                e = sigma[e]
            rotations.setdefault(origin[d], [])
            if rotations[origin[d]]:
                raise ValueError(
                    f"vertex {origin[d]} gets two rotation cycles; faces "
                    "do not describe a sphere embedding")
            rotations[origin[d]] = cycle
        return cls(rotations, twin)

    # -- basic accessors --------------------------------------------------

    @property
    @_once
    def vertices(self) -> frozenset:
        """The vertex ids, built on first use."""
        return frozenset(self._rotations)

    @property
    @_once
    def darts(self) -> frozenset:
        """The dart ids, built on first use."""
        return frozenset(self._origin)

    @property
    @_once
    def edges(self) -> frozenset:
        """Edges as frozensets of their two darts, built on first use."""
        twin = self._twin
        return frozenset(frozenset((d, twin[d])) for d in self._origin)

    @property
    def n(self) -> int:
        return len(self._rotations)

    @property
    def m(self) -> int:
        return len(self._origin) // 2

    @property
    def f(self) -> int:
        """Faces by Euler's convention: the face walks plus one face per
        isolated vertex."""
        return self._f

    def rotation(self, v: Vertex) -> tuple[Dart, ...]:
        return self._rotations[v]

    def twin(self, d: Dart) -> Dart:
        return self._twin[d]

    def origin(self, d: Dart) -> Vertex:
        return self._origin[d]

    def head(self, d: Dart) -> Vertex:
        return self._origin[self._twin[d]]

    def degree(self, v: Vertex) -> int:
        return len(self._rotations[v])

    @_once
    def faces(self) -> tuple[FaceWalk, ...]:
        """All face walks, ordered by their smallest dart id.

        Isolated vertices contribute to the face count ``f`` but have no
        walk, so they do not appear here.  The walks are traced when the
        graph is built; their FaceWalk objects on first use.
        """
        get = self._origin.__getitem__
        return tuple(
            FaceWalk(darts=tuple(walk), vertices=tuple(map(get, walk)))
            for walk in self._walks)

    def face_of(self, d: Dart) -> int:
        """Index into faces() of the face containing dart d."""
        return self._face_of[d]

    def component_of(self, v: Vertex) -> int:
        return self._component_of[v]

    @property
    def n_components(self) -> int:
        return self._n_components

    def is_connected(self) -> bool:
        return self._n_components <= 1

    def __repr__(self) -> str:
        return (f"PlaneMultigraph(n={self.n}, m={self.m}, f={self.f}, "
                f"components={self._n_components})")

    def _without(self, dead_vertices: AbstractSet[Vertex],
                 dead_darts: AbstractSet[Dart],
                 joins: Iterable[tuple[Dart, Dart]]) -> "PlaneMultigraph":
        """A new graph without the dead vertices and darts, in which the
        darts of each pair in ``joins`` are twins.  A dead vertex's darts
        must all be dead.  Only the faces that held a dead dart are traced
        again; components and Euler's relation are checked in full.
        """
        rot, origin, twin = (self._rotations.copy(), self._origin.copy(),
                             self._twin.copy())
        for v in dead_vertices:
            del rot[v]
        for a, b in joins:
            twin[a], twin[b] = b, a
        for d in dead_darts:
            del origin[d], twin[d]
        for v in {self._origin[d] for d in dead_darts} - dead_vertices:
            rot[v] = tuple(d for d in rot[v] if d not in dead_darts)

        dirty = set(map(self._face_of.__getitem__, dead_darts))
        starts = sorted(d for i in dirty for d in self._walks[i]
                        if d not in dead_darts)
        rotation_next = {}
        for ds in map(rot.__getitem__, {origin[twin[d]] for d in starts}):
            rotation_next.update(zip(ds, ds[1:] + ds[:1]))
        phi = dict(zip(starts, map(rotation_next.__getitem__,
                                   map(twin.__getitem__, starts))))
        walks = list(self._walks)
        for i in sorted(dirty, reverse=True):
            del walks[i]
        for start in starts:  # each new walk starts at its smallest dart
            if start in phi:
                walk = [start]
                d = phi.pop(start)
                while d != start:
                    walk.append(d)
                    d = phi.pop(d)
                walks.append(walk)
        walks.sort(key=itemgetter(0))

        g = PlaneMultigraph.__new__(PlaneMultigraph)
        g._rotations, g._origin, g._twin, g._walks, g._memo = (
            rot, origin, twin, walks, {})
        g._face_of = dict(zip(chain.from_iterable(walks), chain.from_iterable(
            map(repeat, range(len(walks)), map(len, walks)))))
        g._components()
        g._check_genus()
        return g

    # -- internals ---------------------------------------------------------

    def _trace_faces(self) -> None:
        origin, twin = self._origin, self._twin
        # origin lists the darts rotation by rotation, so each dart's
        # rotation successor is the next one, except at a rotation's end
        darts = list(origin)
        rotation_next = dict(zip(darts, darts[1:] + darts[:1]))
        ends = list(filter(None, self._rotations.values()))
        rotation_next.update(zip(map(itemgetter(-1), ends),
                                 map(itemgetter(0), ends)))
        # the face successor of d is the rotation successor of twin(d)
        phi = dict(zip(twin, map(rotation_next.__getitem__, twin.values())))
        walks: list[list[Dart]] = []
        face_of: dict[Dart, int] = {}
        for start in sorted(darts):
            if start in face_of:
                continue
            idx = len(walks)
            face_of[start] = idx
            walk = [start]
            d = phi[start]
            while d != start:
                face_of[d] = idx
                walk.append(d)
                d = phi[d]
            walks.append(walk)
        self._walks = walks
        self._face_of = face_of

    def _components(self) -> None:
        rot, origin, twin = self._rotations, self._origin, self._twin
        comp: dict[Vertex, int] = {}
        label = 0
        for v0 in sorted(rot):
            if v0 in comp:
                continue
            comp[v0] = label
            stack = [v0]
            while stack:
                for d in rot[stack.pop()]:
                    w = origin[twin[d]]
                    if w not in comp:
                        comp[w] = label
                        stack.append(w)
            label += 1
        self._component_of, self._n_components = comp, label

    def _check_genus(self) -> None:
        # no component has n - m + f above 2, so the totals give 2 per
        # component exactly when every component does
        rot, comp, k = self._rotations, self._component_of, self._n_components
        self._f = len(self._walks) + len(rot) - sum(map(bool, rot.values()))
        if len(rot) - len(self._origin) // 2 + self._f == 2 * k:
            return
        n, m2, f = [0] * k, [0] * k, [0] * k
        for v, ds in rot.items():
            n[comp[v]] += 1
            m2[comp[v]] += len(ds)
            f[comp[v]] += not ds  # an isolated vertex has a face, no walk
        for walk in self._walks:
            f[comp[self._origin[walk[0]]]] += 1
        for c in range(k):
            euler = n[c] - m2[c] // 2 + f[c]
            if euler != 2:
                raise NonZeroGenus(
                    f"component {c}: n={n[c]} m={m2[c] // 2} f={f[c]} "
                    f"gives n - m + f = {euler}, not 2")


def _raise_duplicate_dart(rot: Mapping[Vertex, Sequence[Dart]]) -> None:
    """Raise DuplicateDart for the first dart seen twice in rotation order."""
    seen: set[Dart] = set()
    for ds in rot.values():
        for d in ds:
            if d in seen:
                raise DuplicateDart(f"dart {d} occurs more than once")
            seen.add(d)


def _checked_twin(twin: Mapping[Dart, Dart],
                  origin: Mapping[Dart, Vertex]) -> dict[Dart, Dart]:
    """The twin involution completed entry by entry, raising DanglingTwin
    at the first entry that breaks it."""
    full: dict[Dart, Dart] = {}
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
    return full


# --- homotopy of closed curves and parallel paths ------------------------


def _flood(g: PlaneMultigraph, seed: int, cut: set[Dart]):
    """Yield the faces of the region of face ``seed``, breadth first.

    Two faces are in the same region when they share an edge whose darts
    are not in ``cut``.
    """
    walks, face_of, twin = g._walks, g._face_of, g._twin
    seen = {seed}
    queue = [seed]
    for i in queue:  # the queue grows while it is read
        yield i
        for d in walks[i]:
            if d not in cut:
                j = face_of[twin[d]]
                if j not in seen:
                    seen.add(j)
                    queue.append(j)


def _check_closed(g: PlaneMultigraph, curve: Sequence[Dart]) -> None:
    if not curve:
        raise OpenCurve("empty curve")
    k = len(curve)
    for i in range(k):
        if g.head(curve[i]) != g.origin(curve[(i + 1) % k]):
            raise OpenCurve(
                f"dart {curve[i]} ends at {g.head(curve[i])} but the next "
                f"dart starts at {g.origin(curve[(i + 1) % k])}")


def curve_is_contractible(g: PlaneMultigraph, curve: Sequence[Dart], *,
                          real: AbstractSet[Vertex]) -> bool:
    """Whether at most one region of the sphere cut along a closed curve
    holds a vertex of ``real``, the region rule for contractibility.

    The rule is exact only for a simple closed curve, where it says "one
    side is empty".  Points on the curve, crossings included, do not
    count.  Only the region of the first vertex found off the curve is
    flooded; every other one must lie in it.
    """
    _check_closed(g, curve)
    cut = {half for d in curve for half in (d, g.twin(d))}
    on_curve = {g.origin(d) for d in curve}
    region = None  # the faces of the region of the first vertex found
    for v in real:
        ds = g.rotation(v)
        if not ds or v in on_curve:
            continue  # on the curve, or isolated and so not locatable
        face = g.face_of(ds[0])
        if region is None:
            region = set(_flood(g, face, cut))
        elif face not in region:
            return False
    return True


def _tree_corners(g: PlaneMultigraph, real: AbstractSet[Vertex]):
    """T's corners at the vertices of ``real``, or None if T misses one:
    (corner, k, joins), where dart d at v lies in corner
    ``corner[d] % k[v]`` (``corner[d]`` is the place of T's last dart at
    or before d, -1 before the first), ``k[v]`` counts T's darts at v, and
    ``joins[(u, v)]``, u < v, is T's dart from u to v."""
    origin, twin, rot = g._origin, g._twin, g._rotations
    queue = [min(real)] if real else []
    up: dict[Vertex, Dart | None] = dict.fromkeys(queue)  # toward the root
    corner: dict[Dart, int] = {}
    k: dict[Vertex, int] = {}
    joins: dict[tuple[Vertex, Vertex], Dart] = {}
    for u in queue:  # the queue grows while it is read
        i = -1  # T's darts: toward the root, and to vertices first seen here
        for d in rot[u]:
            w = origin[twin[d]]
            if w not in up and w in real:
                up[w] = twin[d]
                queue.append(w)
                joins[(u, w) if u < w else (w, u)] = d if u < w else twin[d]
                i += 1
            elif d == up[u]:
                i += 1
            corner[d] = i
        k[u] = i + 1
    return (corner, k, joins) if len(up) == len(real) else None


def _class_keys(g: PlaneMultigraph, paths: Sequence[Sequence[Dart]],
                u: Vertex, v: Vertex, real: AbstractSet[Vertex],
                tree) -> list[tuple] | None:
    """The keys of the paths joining u and v, u <= v: ``()`` for a
    contractible loop and for a path homotopic to T's segment t.  None
    where T's premise fails: ``tree`` is None, u or v is not in ``real``,
    or a path passes through a vertex of ``real``."""
    origin, twin = g._origin, g._twin
    if tree is None or u not in real or v not in real or not real.isdisjoint(
            map(origin.__getitem__,
                chain.from_iterable(path[1:] for path in paths))):
        return None
    corner, k, joins = tree
    ku, kv = k[u] or 1, k[v] or 1
    ends = [(corner[a] % ku, corner[b] % kv) for a, b in (
        (p[0], twin[p[-1]]) if origin[p[0]] == u else (twin[p[-1]], p[0])
        for p in paths)]
    if u == v:
        return [() if i == j else (min(i, j), max(i, j)) for i, j in ends]
    t = joins.get((u, v))
    if t is None:
        return ends
    p, q, big = corner[t], corner[twin[t]], (ku + kv - 2) or 1
    keys = []
    for path, (i, j) in zip(paths, ends):
        wu = ((i - p) % ku - 1) % big
        wv = (ku + (j - q) % kv - 2) % big
        keys.append(() if wu == wv or t in path or twin[t] in path
                    else (wu, wv))
    return keys


def homotopic_curves(g: PlaneMultigraph, curves: Mapping[int, Sequence[Dart]],
                     *, real: AbstractSet[Vertex]) -> list[tuple]:
    """Contractible loops and homotopic parallel pairs among dart paths.

    ``curves`` maps ids to non-empty chained dart paths of g; ``real`` is
    the set of vertices of g that count.  Returns ("loop", i) for each
    contractible loop in id order, then ("pair", i, j), i < j, for each
    homotopic pair, class by class in order of the sorted endpoint pair.
    Each class is decided by T's corners (module docstring) or, where T's
    premise fails, by :func:`curve_is_contractible` per loop and per pair
    closed into one curve, a rule exact only for simple closed curves.
    """
    origin, twin = g._origin, g._twin
    groups: dict[tuple[Vertex, Vertex], list[int]] = {}
    for i in sorted(curves):
        u, v = origin[curves[i][0]], origin[twin[curves[i][-1]]]
        groups.setdefault((u, v) if u <= v else (v, u), []).append(i)
    classes = sorted((uv, ids) for uv, ids in groups.items()
                     if len(ids) > 1 or uv[0] == uv[1])
    tree = _tree_corners(g, real) if classes else None
    loops: list[int] = []
    out: list[tuple] = []
    for (u, v), ids in classes:
        paths = [curves[i] for i in ids]
        keys = _class_keys(g, paths, u, v, real, tree)
        if keys is not None:
            if u == v:
                loops.extend(i for i, key in zip(ids, keys) if not key)
            if len(set(keys)) == len(keys):
                continue
            by_key = sorted(range(len(keys)), key=keys.__getitem__)
            pairs = sorted(pair for _, run in groupby(by_key, keys.__getitem__)
                           for pair in combinations(run, 2))
        else:
            if u == v:
                loops.extend(i for i, path in zip(ids, paths)
                             if curve_is_contractible(g, path, real=real))
            pairs = []
            for a, b in combinations(range(len(paths)), 2):
                first, second = paths[a], paths[b]
                if origin[second[0]] != origin[twin[first[-1]]]:
                    second = [twin[d] for d in reversed(second)]
                if curve_is_contractible(g, [*first, *second], real=real):
                    pairs.append((a, b))
        out.extend(("pair", ids[a], ids[b]) for a, b in pairs)
    return [("loop", i) for i in sorted(loops)] + out
