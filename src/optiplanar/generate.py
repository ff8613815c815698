"""Constructors for optimal 2-planar and 3-planar drawings.

The construction is face-local.  ``characterize.RULES``, the one
statement of the theorem, gives for each k the skeleton face length
(5 or 6), the chord patterns and the crossing limit; every face of the
skeleton is filled with one of its row's patterns: a pentagram, or the
6 short and 2 of the 3 middle chords of a hexagon.

Chords connect *positions* of the face walk, not vertices.  On a
non-simple face the same vertex occupies several positions, so a chord
may come out as a self-loop or as one of several parallel edges; that is
intended and the result stays valid as long as no two parallel chords
are homotopic.

Each pattern becomes a planarization template once, from the cyclic
order of the face positions alone (``_FacePattern``).  A face is filled
by relabelling it: the template's crossing points and darts are numbered
on from the builder's counters and spliced into the host rotation system
corner by corner.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from typing import Mapping, Sequence

from .characterize import _rule
from .drawing import Drawing, validate
from .errors import (
    BadFaceLength,
    FaceNotEmpty,
    HomotopicSkeleton,
    OddPathCount,
)
from .plane import (
    FaceWalk,
    PlaneMultigraph,
    homotopic_curves,
)


# --- one patterned face -----------------------------------------------------


class _FacePattern:
    """A face filled with a chord set, from the order of its positions.

    Positions 0..s-1 run counterclockwise in convex position, so:

    - two chords cross exactly when their four ends are distinct and
      interleave;
    - along chord (a, b), a crosser (c, d) with c on the arc a -> b is met
      in increasing order of ``((c - a) % s, (a - d) % s)``, which holds
      only if no two crossers of the chord cross each other;
    - clockwise is decreasing position, around a crossing by the
      positions its darts run to, and across corner i by the chords'
      other ends, starting next to position i - 1.

    The model is stated in numbers relative to a face: crossing point x
    is ``pairs[x]``, a pair of chord indices in lexicographic order, and
    the x-th new vertex; darts are offsets in allocation order (chord by
    chord, each segment a dart and its twin, so offset o's twin is o ^ 1;
    ``n_darts`` in all).  ``paths[c]`` holds the dart offsets along chord
    c, start to end; ``xrot[x]`` the clockwise rotation at crossing x;
    ``corners[i]`` the chord darts leaving position i, clockwise.

    Raises:
        ValueError: a chord would be crossed more than ``limit`` times,
            or two of its crossers cross each other.
    """

    def __init__(self, s: int, chords: Sequence[tuple[int, int]], limit: int):
        self.chords = chords = tuple(chords)

        def inside(x: int, a: int, b: int) -> bool:
            # x lies strictly on the counterclockwise arc from a to b
            return 0 < (x - a) % s < (b - a) % s

        self.pairs = tuple(
            (i, j) for (i, (a, b)), (j, (c, d)) in combinations(
                enumerate(chords), 2)
            if len({a, b, c, d}) == 4 and inside(c, a, b) != inside(d, a, b))
        # crossers[c][j] = the point where chord j crosses chord c
        crossers: list[dict[int, int]] = [{} for _ in chords]
        for x, (i, j) in enumerate(self.pairs):
            crossers[i][j] = crossers[j][i] = x
        for c, met in enumerate(crossers):
            if len(met) > limit:
                raise ValueError(
                    f"chord {chords[c]} would be crossed {len(met)} "
                    f"times, more than the {limit} allowed")
            if any(p in self.pairs for p in combinations(sorted(met), 2)):
                raise ValueError(f"chord {chords[c]} is crossed by chords "
                                 f"that cross each other")

        paths = []
        at_crossing = [[] for _ in self.pairs]  # (position run to, dart)
        ends: list[list[tuple[int, int]]] = [[] for _ in range(s)]
        o = 0
        for (a, b), met in zip(chords, crossers):

            def order(j: int) -> tuple[int, int]:
                c, d = chords[j]
                if not inside(c, a, b):
                    c, d = d, c
                return ((c - a) % s, (a - d) % s)

            for k, j in enumerate(sorted(met, key=order)):
                at_crossing[met[j]] += [(a, o + 2 * k + 1), (b, o + 2 * k + 2)]
            paths.append(tuple(range(o, o + 2 * len(met) + 1, 2)))
            o += 2 * len(met) + 2
            ends[a].append((b, paths[-1][0]))
            ends[b].append((a, paths[-1][-1] ^ 1))
        self.paths = tuple(paths)
        self.n_darts = o
        self.xrot = tuple(tuple(d for _, d in sorted(darts, reverse=True))
                          for darts in at_crossing)
        self.corners = tuple(
            tuple(d for _, d in sorted(darts, key=lambda e: (i - e[0]) % s))
            for i, darts in enumerate(ends))


@cache
def _pattern(s: int, chords: tuple[tuple[int, int], ...],
             limit: int) -> _FacePattern:
    """The shared template for one chord pattern; never mutated."""
    return _FacePattern(s, chords, limit)


def pattern_chords(k: int, missing_middle: int = 0) -> list[tuple[int, int]]:
    """The chord pattern inserted into each face for a given k: the
    k row's pattern number ``missing_middle``, which a row with a single
    pattern ignores."""
    patterns = _rule(k).patterns
    if len(patterns) == 1:
        return list(patterns[0])
    if missing_middle not in range(len(patterns)):
        raise ValueError(f"missing_middle must be one of "
                         f"{list(range(len(patterns)))}, got {missing_middle}")
    return list(patterns[missing_middle])


# --- incremental drawing assembly ------------------------------------------


class DrawingBuilder:
    """Grows a drawing from a skeleton by filling faces with chords.

    The skeleton's darts and vertices keep their ids; new planarization
    vertices (crossings), darts, and base edges are numbered on from the
    current maxima, so construction is deterministic.
    """

    def __init__(self, skeleton: PlaneMultigraph):
        self.rot: dict[int, list[int]] = {
            v: list(skeleton.rotation(v)) for v in sorted(skeleton.vertices)
        }
        self.twin: dict[int, int] = {d: skeleton.twin(d)
                                     for d in skeleton.darts}
        plain = Drawing.from_plane(skeleton)
        self.base_edges: dict[int, tuple[int, int]] = plain.base_edges
        self.edge_paths: dict[int, tuple[int, ...]] = plain.edge_paths
        self.crossing_vertices: set[int] = set()
        self._next_dart = max(skeleton.darts, default=-1) + 1
        self._next_vertex = max(skeleton.vertices, default=-1) + 1
        self._next_edge = len(self.base_edges)
        self._filled: set[frozenset] = set()

    def finish(self, metadata: Mapping | None = None) -> Drawing:
        plane = PlaneMultigraph(self.rot, self.twin)
        return Drawing(plane, frozenset(self.crossing_vertices),
                       self.base_edges, self.edge_paths, metadata)


def _insert_chords(builder: DrawingBuilder, face: FaceWalk, k: int,
                   missing_middle: int = 0) -> list[int]:
    row = _rule(k)
    if face.length != row.face_length:
        raise BadFaceLength(f"the {row.pattern_name} needs a face of length "
                            f"{row.face_length}, got {face.length}")
    key = frozenset(face.darts)
    if key in builder._filled:
        raise FaceNotEmpty(f"face {face.darts} already has its pattern")
    builder._filled.add(key)

    s = face.length
    pattern = _pattern(s, tuple(pattern_chords(k, missing_middle)),
                       row.crossing_limit)
    vbase, dbase = builder._next_vertex, builder._next_dart
    builder._next_vertex += len(pattern.pairs)
    builder._next_dart += pattern.n_darts

    for x, rotation in enumerate(pattern.xrot):
        builder.rot[vbase + x] = [dbase + o for o in rotation]
    builder.crossing_vertices.update(
        range(vbase, vbase + len(pattern.pairs)))
    for o in range(pattern.n_darts):
        builder.twin[dbase + o] = dbase + (o ^ 1)

    new_edge_ids = []
    for (a, b), path in zip(pattern.chords, pattern.paths):
        eid = builder._next_edge
        builder._next_edge += 1
        builder.base_edges[eid] = (face.vertices[a], face.vertices[b])
        builder.edge_paths[eid] = tuple(dbase + o for o in path)
        new_edge_ids.append(eid)

    # splice chord ends into the host corners
    for i, ends in enumerate(pattern.corners):
        if not ends:
            continue
        rotation = builder.rot[face.vertices[i]]
        idx = rotation.index(face.darts[i])
        if rotation[idx - 1] != builder.twin[face.darts[(i - 1) % s]]:
            raise AssertionError(
                f"corner {i} of face {face.darts} is no longer intact")
        rotation[idx:idx] = [dbase + o for o in ends]
    return new_edge_ids


def insert_pentagram(builder: DrawingBuilder, face: FaceWalk) -> list[int]:
    """Fill a face with the pattern of ``RULES[2]``; returns the new base
    edge ids.  Raises BadFaceLength or FaceNotEmpty."""
    return _insert_chords(builder, face, 2)


def insert_hexagon_pattern(builder: DrawingBuilder, face: FaceWalk,
                           missing_middle: int = 0) -> list[int]:
    """Fill a face with the ``RULES[3]`` pattern that omits the middle
    chord (missing_middle, missing_middle + 3); returns the new base
    edge ids.  Raises BadFaceLength or FaceNotEmpty."""
    return _insert_chords(builder, face, 3, missing_middle)


# --- skeleton families ------------------------------------------------------


def theta_pentagulation(p: int) -> PlaneMultigraph:
    """Two poles joined by p internally disjoint paths, all faces length 5.

    Path lengths alternate 2, 3 around the poles, so consecutive paths
    bound pentagonal faces; p must be even.  p = 2 gives the 5-cycle.
    Yields n = 2 + 3p/2 vertices, m = 5p/2 edges and f = p faces.

    Raises:
        OddPathCount: p is odd.
        ValueError: p < 2.
    """
    if p < 2:
        raise ValueError(f"need at least 2 paths, got {p}")
    if p % 2:
        raise OddPathCount(f"path lengths alternate 2 and 3, so the "
                           f"number of paths must be even, got {p}")
    return _theta([2 if i % 2 == 0 else 3 for i in range(p)])


def theta_hexangulation(p: int) -> PlaneMultigraph:
    """Two poles joined by p paths of length 3, all faces length 6.

    p = 1 gives a path on 4 vertices whose single face is the non-simple
    hexagonal walk.  Yields n = 2p + 2, m = 3p, f = p.
    """
    if p < 1:
        raise ValueError(f"need at least 1 path, got {p}")
    return _theta([3] * p)


def _theta(lengths: list[int]) -> PlaneMultigraph:
    rot: dict[int, list[int]] = {0: [], 1: []}
    twin: dict[int, int] = {}
    pole0_order: list[int] = []
    pole1_order: list[int] = []
    next_vertex = 2
    next_dart = 0
    for length in lengths:
        stops = [0] + list(range(next_vertex, next_vertex + length - 1)) + [1]
        next_vertex += length - 1
        prev_back = None
        for u, w in zip(stops, stops[1:]):
            du, dw = next_dart, next_dart + 1
            next_dart += 2
            twin[du] = dw
            twin[dw] = du
            if u == 0:
                pole0_order.append(du)
            else:
                rot[u] = [du, prev_back]
            if w == 1:
                pole1_order.append(dw)
            prev_back = dw
    rot[0] = pole0_order
    rot[1] = list(reversed(pole1_order))
    return PlaneMultigraph(rot, twin)


def dodecahedron() -> PlaneMultigraph:
    """The dodecahedron: 20 vertices, 30 edges, 12 pentagonal faces.

    The unique 3-regular planar graph of girth 5 on 20 vertices; filling
    its faces with pentagrams yields a simple optimal 2-planar graph.
    """
    T = list(range(0, 5))
    U = list(range(5, 10))
    L = list(range(10, 15))
    B = list(range(15, 20))
    faces: list[tuple[int, ...]] = [tuple(T)]
    for i in range(5):
        j = (i + 1) % 5
        faces.append((T[j], T[i], U[i], L[i], U[j]))
    for i in range(5):
        j = (i + 1) % 5
        faces.append((U[j], L[i], B[i], B[j], L[j]))
    faces.append(tuple(reversed(B)))
    return PlaneMultigraph.from_faces(faces)


# --- whole-drawing generation ----------------------------------------------


def generate_optimal(k: int, skeleton: PlaneMultigraph, *,
                     missing_middle: int = 0,
                     metadata: Mapping | None = None) -> Drawing:
    """Fill every face of a skeleton with its chord pattern.

    Args:
        k: a row of ``characterize.RULES``.
        skeleton: connected plane multigraph, every face of the row's
            length, no homotopic parallel edges or loops.
        missing_middle: which of the row's patterns fills every face.
        metadata: stored on the resulting drawing unchanged.

    Returns:
        A validated Drawing realizing an optimal k-planar graph.

    Raises:
        BadFaceLength: some face has the wrong length.
        HomotopicSkeleton: the skeleton has a forbidden duplicate.
        ValueError: k is not 2 or 3, or the skeleton is disconnected.
    """
    want = _rule(k).face_length
    if skeleton.n < 2 or not skeleton.is_connected():
        raise ValueError("the skeleton must be connected with at least "
                         "2 vertices")
    # homotopic duplicates also produce short faces, so this must come
    # before the face length check to be reported as what it is
    _reject_homotopic(skeleton)
    builder = DrawingBuilder(skeleton)
    for idx, face in enumerate(skeleton.faces()):
        if face.length != want:
            raise BadFaceLength(
                f"face {idx} has length {face.length}, need {want}")
        # through the module globals, which bench/spans.py rebinds
        if k == 2:
            insert_pentagram(builder, face)
        else:
            insert_hexagon_pattern(builder, face, missing_middle)
    d = builder.finish(metadata)
    problems = validate(d)
    if problems:
        raise AssertionError(f"construction produced an invalid drawing: "
                             f"{problems[0]}")
    return d


def _reject_homotopic(skeleton: PlaneMultigraph) -> None:
    dups = homotopic_curves(skeleton,
                            {min(e): (min(e),) for e in skeleton.edges},
                            real=skeleton.vertices)
    if not dups:
        return
    kind, d = dups[0][:2]
    u, v = sorted((skeleton.origin(d), skeleton.head(d)))
    if kind == "loop":
        raise HomotopicSkeleton(
            f"skeleton loop at vertex {u} bounds an empty region")
    raise HomotopicSkeleton(
        f"skeleton has homotopic parallel edges between {u} and {v}")
