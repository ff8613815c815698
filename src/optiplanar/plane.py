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
involution, face walks, components, Euler's check); the ``vertices``,
``darts`` and ``edges`` sets and the ``FaceWalk`` objects are built once,
on first use, so a graph that is only checked for its size and genus
never allocates them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import (
    DanglingTwin,
    DuplicateDart,
    NonZeroGenus,
    NotLoop,
    NotParallel,
    OpenCurve,
)

Vertex = int
Dart = int
Edge = frozenset  # frozenset of the two darts of an edge


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

    def is_simple(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)


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
        "_rotations", "_twin", "_origin", "_walks", "_faces", "_face_of",
        "_component_of", "_n_components", "_f",
        "_vertices", "_darts", "_edges",
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
        self._faces = self._vertices = self._darts = self._edges = None
        self._trace_faces()
        self._components()
        self._check_genus()

    # -- construction helpers -------------------------------------------

    @classmethod
    def build(cls, rotations: Mapping[Vertex, Sequence[Dart]],
              twin: Mapping[Dart, Dart]) -> "PlaneMultigraph":
        """Build and fully validate a rotation system."""
        return cls(rotations, twin)

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
        # so the rotation successor of e is face_next[twin(e)].
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
                if origin[e] != origin[d]:
                    raise ValueError("face data does not close up at a vertex")
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
    def vertices(self) -> frozenset:
        """The vertex ids, built on first use."""
        if self._vertices is None:
            self._vertices = frozenset(self._rotations)
        return self._vertices

    @property
    def darts(self) -> frozenset:
        """The dart ids, built on first use."""
        if self._darts is None:
            self._darts = frozenset(self._origin)
        return self._darts

    @property
    def edges(self) -> frozenset:
        """Edges as frozensets of their two darts, built on first use."""
        if self._edges is None:
            twin = self._twin
            self._edges = frozenset(
                frozenset((d, twin[d])) for d in self._origin)
        return self._edges

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

    def edge_of(self, d: Dart) -> Edge:
        return frozenset((d, self._twin[d]))

    def edge_endpoints(self, e: Edge) -> tuple[Vertex, Vertex]:
        a, b = sorted(e)
        return (self._origin[a], self._origin[b])

    def faces(self) -> tuple[FaceWalk, ...]:
        """All face walks, ordered by their smallest dart id.

        Isolated vertices contribute to the face count ``f`` but have no
        walk, so they do not appear here.  The walks are traced when the
        graph is built; their FaceWalk objects on first use.
        """
        if self._faces is None:
            get = self._origin.__getitem__
            self._faces = tuple(
                FaceWalk(darts=tuple(walk), vertices=tuple(map(get, walk)))
                for walk in self._walks)
        return self._faces

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
        comp = self._component_of
        k = self._n_components
        n, m2, f = [0] * k, [0] * k, [0] * k
        for v, ds in self._rotations.items():
            c = comp[v]
            n[c] += 1
            m2[c] += len(ds)
            if not ds:  # an isolated vertex has a single face and no walk
                f[c] += 1
        for walk in self._walks:
            f[comp[self._origin[walk[0]]]] += 1
        self._f = sum(f)
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


# --- regions of closed curves -------------------------------------------


def _cut_darts(g: PlaneMultigraph, curve: Iterable[Dart]) -> set[Dart]:
    """Both halves of every planarization edge a curve runs along."""
    twin = g.twin
    cut: set[Dart] = set()
    for d in curve:
        cut.add(d)
        cut.add(twin(d))
    return cut


def _flood(g: PlaneMultigraph, seed: int, cut: set[Dart]):
    """Yield the faces of the region of face ``seed``, breadth first.

    Two faces are in the same region when they share an edge whose darts
    are not in ``cut``.
    """
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


def _face_regions(g: PlaneMultigraph, cut: set[Dart]) -> tuple[list[int], int]:
    """Partition faces into regions separated by the cut darts.

    ``cut`` holds both halves of every cut edge.  Returns (label per face
    index, number of regions).
    """
    labels = [-1] * len(g.faces())
    count = 0
    for seed in range(len(labels)):
        if labels[seed] != -1:
            continue
        for i in _flood(g, seed, cut):
            labels[i] = count
        count += 1
    return labels, count


def _check_closed(g: PlaneMultigraph, curve: Sequence[Dart]) -> None:
    if not curve:
        raise OpenCurve("empty curve")
    k = len(curve)
    for i in range(k):
        if g.head(curve[i]) != g.origin(curve[(i + 1) % k]):
            raise OpenCurve(
                f"dart {curve[i]} ends at {g.head(curve[i])} but the next "
                f"dart starts at {g.origin(curve[(i + 1) % k])}")


def _region_vertex_counts(g: PlaneMultigraph, curve: Sequence[Dart],
                          labels: list[int], count: int,
                          real=None) -> list[int]:
    """Count, per region, the real vertices strictly inside it."""
    on_curve = {g.origin(d) for d in curve}
    counts = [0] * count
    for v in g.vertices:
        if v in on_curve:
            continue
        if real is not None and v not in real:
            continue
        ds = g.rotation(v)
        if ds:
            counts[labels[g.face_of(ds[0])]] += 1
        # an isolated vertex cannot be located; skip it
    return counts


def curve_is_contractible(g: PlaneMultigraph, curve: Sequence[Dart], *,
                          real=None) -> bool:
    """Whether a closed curve bounds only vertex-free regions on one side.

    The sphere is cut along every edge of the curve; the curve is
    contractible (deformable to a point without sweeping a vertex) iff at
    most one of the resulting regions strictly contains a real vertex.
    For a simple closed curve this is exactly "one side is empty".
    Crossing points on the curve count as curve points, not as vertices.
    """
    _check_closed(g, curve)
    labels, count = _face_regions(g, _cut_darts(g, curve))
    counts = _region_vertex_counts(g, curve, labels, count, real)
    return sum(1 for c in counts if c > 0) <= 1


def _oriented_lens_class(g: PlaneMultigraph, curves: Sequence[Sequence[Dart]],
                         real) -> tuple[list[Sequence[Dart]], set[Dart]] | None:
    """The curves of a class oriented from a common endpoint u, and their
    cut darts, or None when the lens argument does not apply."""
    if not all(curves) or not g.is_connected():
        return None
    u, v = g.origin(curves[0][0]), g.head(curves[0][-1])
    if u == v:
        return None
    oriented: list[Sequence[Dart]] = []
    cut: set[Dart] = set()
    interior: set[Vertex] = set()
    for curve in curves:
        if g.origin(curve[0]) != u:
            curve = [g.twin(d) for d in reversed(curve)]
        if g.origin(curve[0]) != u or g.head(curve[-1]) != v:
            return None
        for d, nxt in zip(curve, curve[1:]):
            w = g.head(d)
            if (g.origin(nxt) != w or w == u or w == v or w in interior
                    or real is None or w in real):
                return None  # broken, not simple, touching or through a vertex
            interior.add(w)
        for d in curve:
            if d in cut:
                return None  # a segment shared with another curve
            cut.add(d)
            cut.add(g.twin(d))
        oriented.append(curve)
    return oriented, cut


def homotopic_class_pairs(g: PlaneMultigraph, curves: Sequence[Sequence[Dart]],
                          *, real=None) -> list[tuple[int, int]] | None:
    """Homotopic pairs among parallel curves, decided for the whole class.

    Args:
        g: the graph (usually a planarization) carrying the curves.
        curves: dart paths that all join the same two vertices u != v,
            each in either direction.
        real: optional set restricting which vertices count; None means
            every vertex counts.

    Returns the index pairs (i, j), i < j, of the curves that are
    homotopic, i.e. whose closed curve (i, then j backwards) is accepted
    by :func:`curve_is_contractible`, in lexicographic order.

    The sphere is cut along all c curves at once and splits into c
    lenses, one per wedge between consecutive curves in u's rotation; the
    face of a curve's first dart lies in the lens that ends at that
    curve.  Each lens is flooded until its first real vertex other than u
    and v.  Two curves are homotopic exactly when every lens on one side
    of them is empty, so the curves fall into classes of rotation
    neighbours joined by empty lenses.  When every lens holds a vertex,
    as in every optimal drawing, the rotation order is never needed.

    The argument needs a connected graph and curves that are simple paths
    whose interior vertices are not real (crossing points) and that share
    no vertex but u and v and no edge, i.e. do not cross or touch each
    other.  When any of these fails the result is None and
    :func:`homotopic_curves` falls back to one :func:`curve_is_contractible`
    per pair.
    """
    if len(curves) < 2:
        return []
    lens_class = _oriented_lens_class(g, curves, real)
    if lens_class is None:
        return None
    oriented, cut = lens_class
    u, v = g.origin(oriented[0][0]), g.head(oriented[0][-1])
    faces = g.faces()

    def lens_is_empty(curve: Sequence[Dart]) -> bool:
        for i in _flood(g, g.face_of(curve[0]), cut):
            for w in faces[i].vertices:
                if w != u and w != v and (real is None or w in real):
                    return False
        return True

    empty_before = [lens_is_empty(curve) for curve in oriented]
    if not any(empty_before):
        return []
    first = {curve[0]: k for k, curve in enumerate(oriented)}
    order = [first[d] for d in g.rotation(u) if d in first]
    # go once around u from a curve whose preceding lens holds a vertex
    # (from any curve when all lenses are empty)
    c = len(order)
    start = next((t for t in range(c) if not empty_before[order[t]]), 0)
    classes: list[list[int]] = []
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


def homotopic_curves(g: PlaneMultigraph, curves: Mapping[int, Sequence[Dart]],
                     *, real=None) -> list[tuple]:
    """Contractible loops and homotopic parallel pairs among dart paths.

    ``curves`` maps ids to non-empty dart paths of g; ``real`` is as for
    :func:`curve_is_contractible`.  Returns ("loop", i) for each
    contractible loop in id order, then ("pair", i, j), i < j, for each
    homotopic pair, class by class in order of the sorted endpoint pair.
    A class between two distinct endpoints is decided at once by
    :func:`homotopic_class_pairs`; a class it cannot decide, and every
    class of loops, takes one :func:`curve_is_contractible` per pair.
    """
    out: list[tuple] = []
    groups: dict[tuple[Vertex, Vertex], list[int]] = {}
    for i in sorted(curves):
        path = curves[i]
        u, v = g.origin(path[0]), g.head(path[-1])
        groups.setdefault((u, v) if u <= v else (v, u), []).append(i)
        if u == v and curve_is_contractible(g, path, real=real):
            out.append(("loop", i))
    for key in sorted(groups):
        ids = groups[key]
        pairs = homotopic_class_pairs(g, [curves[i] for i in ids], real=real)
        if pairs is None:
            pairs = [(a, b) for a in range(len(ids))
                     for b in range(a + 1, len(ids))
                     if curve_is_contractible(
                         g, _closed_pair(g, curves[ids[a]], curves[ids[b]]),
                         real=real)]
        out.extend(("pair", ids[a], ids[b]) for a, b in pairs)
    return out


def _closed_pair(g: PlaneMultigraph, first: Sequence[Dart],
                 second: Sequence[Dart]) -> list[Dart]:
    """``first`` forward, then ``second`` from first's head back to its
    tail, reversed when it starts elsewhere."""
    if g.origin(second[0]) != g.head(first[-1]):
        second = [g.twin(d) for d in reversed(second)]
    return [*first, *second]


def is_homotopic_pair(g: PlaneMultigraph, e1: Edge, e2: Edge, *,
                      real=None) -> bool:
    """Whether two parallel edges of g are homotopic (a forbidden pair).

    The two edges are walked as a closed curve (e1 forward, e2 backward);
    the pair is homotopic iff that curve is contractible, i.e. one of the
    regions it bounds contains no vertex other than the shared endpoints.

    Raises:
        NotParallel: the edges do not share both endpoints.
    """
    if e1 == e2:
        raise NotParallel("an edge is not parallel to itself")
    (u, v), (x, y) = g.edge_endpoints(e1), g.edge_endpoints(e2)
    if {u, v} != {x, y}:
        raise NotParallel(
            f"edges have endpoints {{{u}, {v}}} and {{{x}, {y}}}")
    return curve_is_contractible(
        g, _closed_pair(g, [min(e1)], [min(e2)]), real=real)


def is_homotopic_loop(g: PlaneMultigraph, e: Edge, *, real=None) -> bool:
    """Whether a self-loop of g is homotopic to a point (forbidden).

    Raises:
        NotLoop: the edge has two distinct endpoints.
    """
    d = min(e)
    if g.origin(d) != g.head(d):
        raise NotLoop(f"edge {sorted(e)} is not a self-loop")
    return curve_is_contractible(g, [d], real=real)
