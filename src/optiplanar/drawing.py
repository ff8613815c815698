"""Topological drawings with crossings, stored through their planarization.

A drawing is kept in exactly one form: the planarization.  Crossing points
are degree-4 dummy vertices of an ordinary sphere-embedded multigraph (see
:mod:`optiplanar.plane`), and every base edge remembers the ordered path
of planarization edges it was subdivided into.  There is no separate
geometric representation; every query (crossing counts, the crossing
graph, the true-planar skeleton, ...) is answered from the rotation
system and the edge paths.

Validation never raises for content problems; :func:`validate` returns a
list of diagnostics with one distinct code per violated invariant:

- ``IsolatedVertex``: a real vertex has no edges.
- ``BadCrossingDegree``: a crossing vertex does not have degree 4.
- ``SelfCrossingEdge``: an edge path revisits a planarization vertex.
- ``VertexOnEdge``: an edge path passes through a real vertex.
- ``OrphanSegment``: a planarization edge is used by no path, or by two.
- ``TangentialCrossing``: the two edges at a crossing vertex do not
  alternate in its rotation, i.e. they touch instead of crossing.

Every structure derived from a drawing (real vertices, the dart-to-edge
map, diagnostics, the crossing graph, the skeleton) is computed on first
use and kept in its ``_memo`` through :func:`optiplanar.plane._once`.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, cycle, repeat
from operator import eq, itemgetter, xor
from typing import Iterable, Iterator, Mapping, Sequence

from .plane import Dart, PlaneMultigraph, Vertex, _once, homotopic_curves


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: a stable code, a message, and a witness."""

    code: str
    message: str
    witness: tuple = ()

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class Drawing:
    """A drawing of a multigraph, held as planarization plus edge paths.

    Args:
        plane: the planarization, a validated sphere embedding.
        crossing_vertices: which planarization vertices are crossings;
            all others are the real (base) vertices.
        base_edges: mapping edge id -> (u, v) endpoints, in the same
            orientation as the edge's path.
        edge_paths: mapping edge id -> ordered darts, one per
            planarization edge along the base edge, chained u to v.
        metadata: free-form mapping carried through save/load untouched.

    The constructor rejects structurally uninterpretable input (broken
    chains, unknown darts, endpoint mismatches) with ValueError; content
    violations are reported by :func:`validate` instead.
    """

    __slots__ = ("plane", "crossing_vertices", "base_edges", "edge_paths",
                 "metadata", "_memo")

    def __init__(self, plane: PlaneMultigraph, crossing_vertices,
                 base_edges: Mapping[int, tuple[Vertex, Vertex]],
                 edge_paths: Mapping[int, Sequence[Dart]],
                 metadata: Mapping | None = None):
        self.plane = plane
        self.crossing_vertices = frozenset(crossing_vertices)
        self.base_edges = {e: (u, v) for e, (u, v) in base_edges.items()}
        self.edge_paths = {e: tuple(p) for e, p in edge_paths.items()}
        self.metadata = dict(metadata) if metadata else {}
        self._memo: dict = {}

        cross = self.crossing_vertices
        if not plane._rotations.keys() >= cross:
            raise ValueError("crossing_vertices mentions unknown vertices")
        if self.base_edges.keys() != self.edge_paths.keys():
            raise ValueError("base_edges and edge_paths disagree on edge ids")

        # the paths are checked all at once, and every dart is looked up
        # on the way; only a failure goes edge by edge, to name the first
        origin = plane._origin
        paths = list(self.edge_paths.values())
        ends = list(map(self.base_edges.__getitem__, self.edge_paths))
        try:
            fits = (cross.isdisjoint(chain.from_iterable(ends))
                    and all(paths)
                    and list(map(origin.__getitem__,
                                 map(itemgetter(0), paths)))
                    == list(map(itemgetter(0), ends))
                    and list(_heads(plane, map(itemgetter(-1), paths)))
                    == list(map(itemgetter(1), ends))
                    and all(map(eq, _heads(plane, chain.from_iterable(
                                        map(_ALL_BUT_LAST, paths))),
                                map(origin.__getitem__, chain.from_iterable(
                                    map(_ALL_BUT_FIRST, paths))))))
        except KeyError:  # a dart that is not in the plane
            fits = False
        if not fits:
            self._raise_first_fault()

    def _raise_first_fault(self) -> None:
        """Raise the ValueError for the first malformed edge path."""
        cross = self.crossing_vertices
        origin, twin = self.plane._origin, self.plane._twin
        for e in sorted(self.base_edges):
            u, v = self.base_edges[e]
            if u in cross or v in cross:
                raise ValueError(f"edge {e} ends at a crossing vertex")
            path = self.edge_paths[e]
            if not path:
                raise ValueError(f"edge {e} has an empty path")
            for d in path:
                if d not in origin:
                    raise ValueError(f"edge {e} path uses unknown dart {d}")
            if origin[path[0]] != u or origin[twin[path[-1]]] != v:
                raise ValueError(
                    f"edge {e} path runs {origin[path[0]]} -> "
                    f"{origin[twin[path[-1]]]} but endpoints are ({u}, {v})")
            for a, b in zip(path, path[1:]):
                if origin[twin[a]] != origin[b]:
                    raise ValueError(f"edge {e} path breaks between darts "
                                     f"{a} and {b}")

    # -- accessors ---------------------------------------------------------

    @property
    @_once
    def real_vertices(self) -> frozenset:
        """The planarization vertices that are not crossings."""
        return self.plane.vertices - self.crossing_vertices

    @classmethod
    def from_plane(cls, plane: PlaneMultigraph) -> "Drawing":
        """Lift a crossing-free plane multigraph to a Drawing.

        Edge ids are assigned in order of each edge's smallest dart.
        """
        base_edges = {}
        edge_paths = {}
        for i, e in enumerate(sorted(plane.edges, key=min)):
            d = min(e)
            base_edges[i] = (plane.origin(d), plane.head(d))
            edge_paths[i] = (d,)
        return cls(plane, frozenset(), base_edges, edge_paths)

    def edge_of_dart(self, d: Dart) -> int:
        """The base edge whose path contains this planarization dart."""
        return self._edge_of_darts()[d]

    @_once
    def _edge_of_darts(self) -> dict[Dart, int]:
        # each dart goes to the smallest edge whose path uses its
        # segment; a segment used twice is left to validate()
        paths, twin = self.edge_paths, self.plane._twin
        return {half: e for e in sorted(paths, reverse=True)
                for dart in paths[e] for half in (dart, twin[dart])}

    def crossings_of(self, e: int) -> int:
        """Number of crossings on base edge e."""
        return len(self.edge_paths[e]) - 1

    def is_crossed(self, e: int) -> bool:
        return len(self.edge_paths[e]) > 1

    @property
    def n(self) -> int:
        """Number of real vertices."""
        return self.plane.n - len(self.crossing_vertices)

    @property
    def m(self) -> int:
        """Number of base edges."""
        return len(self.base_edges)

    def __repr__(self) -> str:
        return (f"Drawing(n={self.n}, m={self.m}, "
                f"crossings={len(self.crossing_vertices)})")

    # -- internals used by validate and the crossing graph ------------------

    @_once
    def _transits(self) -> dict[Vertex, list[tuple[int, Dart, Dart]]]:
        """For each interior path vertex: (edge id, dart pair at the vertex).

        A path entering x via dart g and leaving via dart h puts the darts
        twin(g) and h at x; those two are one transit.
        """
        out: dict[Vertex, list[tuple[int, Dart, Dart]]] = {}
        for e in sorted(self.base_edges):
            path = self.edge_paths[e]
            for g, h in zip(path, path[1:]):
                x = self.plane.head(g)
                out.setdefault(x, []).append((e, self.plane.twin(g), h))
        return out


# A path's darts but its last end at its interior vertices, in path
# order; its darts but its first leave them.
_ALL_BUT_LAST = itemgetter(slice(None, -1))
_ALL_BUT_FIRST = itemgetter(slice(1, None))


def _heads(plane: PlaneMultigraph, darts: Iterable[Dart]) -> Iterator[Vertex]:
    """The vertex each dart points to."""
    return map(plane._origin.__getitem__, map(plane._twin.__getitem__, darts))


@_once
def validate(d: Drawing) -> list[Diagnostic]:
    """Check every drawing invariant; return one diagnostic per violation.

    Each invariant is first proved for the whole drawing at once; only
    one that fails goes vertex by vertex, edge by edge or segment by
    segment, to name its witnesses.
    """
    plane = d.plane
    rot, twin = plane._rotations, plane._twin
    cross = d.crossing_vertices
    out: list[Diagnostic] = []

    if () in rot.values():
        out += [Diagnostic("IsolatedVertex",
                           f"real vertex {v} has no edges", (v,))
                for v in sorted(d.real_vertices) if not rot[v]]
    degrees_ok = set(map(len, map(rot.__getitem__, cross))) <= {4}
    if not degrees_ok:
        out += [Diagnostic(
            "BadCrossingDegree",
            f"crossing vertex {x} has degree {plane.degree(x)}, not 4", (x,))
            for x in sorted(cross) if plane.degree(x) != 4]

    # every interior path vertex is a crossing, none twice on one path
    # (so none is an end of its path either: ends are real)
    paths = list(d.edge_paths.values())
    inner = list(map(_ALL_BUT_LAST, paths))
    interior = list(_heads(plane, chain.from_iterable(inner)))
    per_edge = chain.from_iterable(map(repeat, d.edge_paths, map(len, inner)))
    interior_ok = (cross.issuperset(interior)
                   and len(set(zip(per_edge, interior))) == len(interior))
    if not interior_ok:
        out += _interior_faults(d)

    # each segment is used once: as many path darts as segments, and the
    # path darts with their twins cover every dart
    darts = list(chain.from_iterable(paths))
    segments_ok = (len(darts) == plane.m
                   and len(set(darts).union(map(twin.__getitem__, darts)))
                   == len(twin))
    if not segments_ok:
        out += _segment_faults(d)

    # with all of that, each crossing holds two transits; they cross when
    # each joins opposite darts of its rotation, two places apart
    crossings_ok = False
    if degrees_ok and interior_ok and segments_ok:
        place = dict(zip(chain.from_iterable(map(rot.__getitem__, cross)),
                         cycle(range(4)))).__getitem__
        entering = map(twin.__getitem__, chain.from_iterable(inner))
        leaving = chain.from_iterable(map(_ALL_BUT_FIRST, paths))
        crossings_ok = set(map(xor, map(place, entering),
                               map(place, leaving))) <= {2}
    if not crossings_ok:
        out += _tangential_faults(d)
    return out


def _interior_faults(d: Drawing) -> list[Diagnostic]:
    """SelfCrossingEdge and VertexOnEdge, edge by edge."""
    plane = d.plane
    out = []
    for e in sorted(d.base_edges):
        path = d.edge_paths[e]
        u, v = d.base_edges[e]
        interior = [plane.origin(dart) for dart in path[1:]]
        seen = set()
        repeated = None
        for w in interior:
            if w in seen or w == u or w == v:
                repeated = w
                break
            seen.add(w)
        # a self-loop legitimately starts and ends at the same vertex
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
    return out


def _segment_faults(d: Drawing) -> list[Diagnostic]:
    """OrphanSegment, segment by segment."""
    # a segment is counted under the smaller of its two darts
    twin = d.plane._twin
    use: Counter = Counter()
    for e in sorted(d.base_edges):
        for dart in d.edge_paths[e]:
            use[min(dart, twin[dart])] += 1
    out = []
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
    return out


def _tangential_faults(d: Drawing) -> list[Diagnostic]:
    """TangentialCrossing, crossing by crossing."""
    plane = d.plane
    transits = d._transits()
    out = []
    for x in sorted(d.crossing_vertices):
        if plane.degree(x) != 4:
            continue  # already reported
        tr = transits.get(x, [])
        if len(tr) != 2:
            continue  # an orphan/reuse problem reported above
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


# --- crossing structure ---------------------------------------------------


@dataclass(frozen=True)
class CrossingGraph:
    """Base edges as nodes; multiplicities count shared crossing points;
    adjacency maps each edge to its crossers (itself if self-crossing)."""

    nodes: tuple[int, ...]
    multiplicity: Mapping[frozenset, int] = field(hash=False)
    adjacency: Mapping[int, frozenset] = field(hash=False, compare=False,
                                               repr=False)

    def neighbors(self, e: int) -> tuple[int, ...]:
        return tuple(sorted(self.adjacency[e]))


@_once
def crossing_graph(d: Drawing) -> CrossingGraph:
    """The crossing graph: which base edges cross which, how often."""
    mult: Counter = Counter()
    adj: dict[int, set[int]] = {e: set() for e in d.base_edges}
    for x, tr in sorted(d._transits().items()):
        if x not in d.crossing_vertices or len(tr) != 2:
            continue
        a, b = tr[0][0], tr[1][0]
        mult[frozenset((a, b))] += 1
        adj[a].add(b)
        adj[b].add(a)
    return CrossingGraph(nodes=tuple(sorted(d.base_edges)),
                         multiplicity=dict(mult),
                         adjacency={e: frozenset(s) for e, s in adj.items()})


def crossing_components(d: Drawing) -> tuple[frozenset, ...]:
    """Partition of the base edges into crossing components.

    Uncrossed edges form singleton components.  Components are returned
    sorted by their smallest edge id.
    """
    xg = crossing_graph(d)
    seen: set[int] = set()
    comps = []
    for e0 in xg.nodes:
        if e0 in seen:
            continue
        comp = {e0}
        seen.add(e0)
        queue = deque([e0])
        while queue:
            e = queue.popleft()
            for g in xg.adjacency[e]:
                if g not in seen:
                    seen.add(g)
                    comp.add(g)
                    queue.append(g)
        comps.append(frozenset(comp))
    return tuple(sorted(comps, key=min))


@_once
def skeleton_edge_ids(d: Drawing) -> frozenset:
    """Ids of the true-planar (uncrossed) base edges."""
    return frozenset(e for e in d.base_edges if not d.is_crossed(e))


@_once
def true_planar_skeleton(d: Drawing) -> PlaneMultigraph:
    """The sub-embedding induced by the uncrossed edges.

    Rotations of the real vertices are restricted to skeleton darts, so
    the skeleton inherits its embedding from the drawing.  Real vertices
    whose edges are all crossed stay as isolated vertices; the spanning
    check in the characterizer looks for exactly that.
    """
    twin: dict[Dart, Dart] = {}
    for e in skeleton_edge_ids(d):
        dart = d.edge_paths[e][0]
        twin[dart] = d.plane.twin(dart)
        twin[twin[dart]] = dart
    rotations = {
        v: [dart for dart in d.plane.rotation(v) if dart in twin]
        for v in sorted(d.real_vertices)
    }
    return PlaneMultigraph(rotations, twin)


def is_k_planar(d: Drawing, k: int) -> bool:
    """Whether every base edge is crossed at most k times."""
    return all(d.crossings_of(e) <= k for e in d.base_edges)


def is_simple(d: Drawing) -> bool:
    """Whether the base graph has no loops and no parallel edges."""
    seen = set()
    for u, v in d.base_edges.values():
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return False
        seen.add(key)
    return True


def crossing_histogram(d: Drawing) -> dict[int, int]:
    """Map crossing count -> number of base edges with that count."""
    return dict(sorted(Counter(
        d.crossings_of(e) for e in d.base_edges).items()))


def is_quasi_planar(d: Drawing) -> bool:
    """True when no three base edges pairwise cross."""
    xg = crossing_graph(d)
    adj = xg.adjacency
    for e in xg.nodes:
        for g in adj[e]:
            if g <= e:
                continue
            if adj[e] & (adj[g] - {e, g}):
                return False
    return True


def is_fan_planar(d: Drawing) -> bool:
    """True when, per edge, all edges crossing it share a common endpoint."""
    xg = crossing_graph(d)
    for e in xg.nodes:
        crossers = xg.neighbors(e)
        if len(crossers) < 2:
            continue
        common = set(d.base_edges[crossers[0]])
        for g in crossers[1:]:
            common &= set(d.base_edges[g])
        if not common:
            return False
    return True


def double_crossing_pairs(d: Drawing) -> tuple[tuple[int, int], ...]:
    """Edge pairs that cross each other more than once."""
    xg = crossing_graph(d)
    out = []
    for pair, k in xg.multiplicity.items():
        if k >= 2 and len(pair) == 2:
            out.append(tuple(sorted(pair)))
    return tuple(sorted(out))


def odd_true_planar_cycle(d: Drawing):
    """The darts of the first odd-length skeleton face walk, or None.

    On the sphere the face walks of each component span its cycle space
    mod 2, and a walk has the parity of the edges it passes once, so the
    skeleton is bipartite exactly when every face walk has even length.
    None means it is, which is what optimal 3-planar structure requires.
    """
    for walk in true_planar_skeleton(d).faces():
        if walk.length % 2:
            return walk.darts
    return None


def empty_true_planar_triangle(d: Drawing):
    """A length-3 skeleton face with nothing inside, or None.

    A triangle of uncrossed edges is empty exactly when its three darts
    also bound a face of the planarization.
    """
    sk_ids = skeleton_edge_ids(d)
    for walk in d.plane.faces():
        if walk.length != 3:
            continue
        if all(d.edge_of_dart(dart) in sk_ids for dart in walk.darts):
            return walk
    return None


def homotopic_duplicates(d: Drawing) -> list[tuple]:
    """All forbidden homotopic configurations among the base edges.

    Returns tuples ("loop", e) for contractible self-loops and
    ("pair", e1, e2) for homotopic parallel pairs, in deterministic
    order.  An empty list is required for every optimal drawing.  The
    decision is :func:`~optiplanar.plane.homotopic_curves` over the edge
    paths, counting real vertices only.
    """
    return homotopic_curves(d.plane, d.edge_paths, real=d.real_vertices)


def remove_base_edge(d: Drawing, e: int) -> Drawing:
    """A new Drawing with base edge e deleted and its crossings healed.

    Every crossing vertex on e's path disappears; the other edge through
    each such vertex gets its two adjacent segments merged back into one.
    The drawing must pass :func:`validate` (free once it has), real
    vertices without edges aside, or a ValueError names the first
    diagnostic.  Only the faces along e's path are traced again; copying
    the maps, the component search and the path checks still cost O(m).
    """
    if e not in d.base_edges:
        raise KeyError(f"no base edge {e}")
    problems = [p for p in validate(d) if p.code != "IsolatedVertex"]
    if problems:
        raise ValueError(f"drawing fails validation: {problems[0]}")
    plane = d.plane
    rot, origin, twin = plane._rotations, plane._origin, plane._twin
    gone_path = d.edge_paths[e]
    dead_vertices = {origin[twin[g]] for g in gone_path[:-1]}
    dead_darts = set(gone_path)
    dead_darts.update(map(twin.__getitem__, gone_path))
    # the darts that end at a vanished crossing point
    into_dead = {twin[x] for v in dead_vertices for x in rot[v]}

    joins = []
    new_paths = {g: d.edge_paths[g] for g in sorted(d.base_edges) if g != e}
    for g, old in new_paths.items():
        if into_dead.isdisjoint(old):
            continue
        merged: list[Dart] = []
        i = 0
        while i < len(old):
            j = i
            while origin[twin[old[j]]] in dead_vertices:
                j += 1
            if j > i:
                # the run old[i..j] passes only vanished crossing points;
                # fuse it into the single planarization edge (old[i], twin(old[j]))
                dead_darts.update(old[i + 1:j + 1])
                dead_darts.update(map(twin.__getitem__, old[i:j]))
                joins.append((old[i], twin[old[j]]))
            merged.append(old[i])
            i = j + 1
        new_paths[g] = tuple(merged)

    new_plane = plane._without(dead_vertices, dead_darts, joins)
    base = {g: uv for g, uv in d.base_edges.items() if g != e}
    return Drawing(new_plane, d.crossing_vertices - dead_vertices,
                   base, new_paths, d.metadata)
