"""Bar visibility layouts for skeletons and optimal 2-planar drawings.

A bar visibility representation places every vertex as a horizontal bar
(one per row) and every edge as a vertical segment whose open interior
touches no bar; in a bar 1-visibility representation a segment may cross
at most one bar.

The planar layout is the classic one for st-planar graphs: number the
vertices so that every vertex other than the two poles has both a lower
and a higher neighbour, orient edges upwards, topologically order the
faces left to right, and give every edge the column of the face on its
left.  A simple optimal 2-planar drawing then extends to bar
1-visibility: its true-planar skeleton gets the planar layout on a
16-fold horizontal grid, and the five chords of each pentagonal face go
into a private block of columns just left of the face's own column
(right of everything for the outer face).  Inside a block only the bars
of that face's five corners can interfere, so a small search over the
120 ways to order the chords always finds an assignment where each
chord crosses at most one bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .characterize import (
    assign_crossed_edges_to_faces,
    check_optimal_2planar,
    chord_positions,
)
from .drawing import Drawing, is_simple, true_planar_skeleton
from .errors import (
    LayoutFailure,
    NotBiconnected,
    NotOptimal2Planar,
    NotSimple,
)
from .plane import PlaneMultigraph


# --- st-numbering -----------------------------------------------------------


def st_number(g: PlaneMultigraph, s: int, t: int) -> dict[int, int]:
    """Number vertices 1..n with s = 1, t = n, all others bipolar.

    Every vertex except the poles gets both a lower-numbered and a
    higher-numbered neighbour, which requires g to be 2-connected (or
    the single edge st).  The result is verified before it is returned.

    Raises:
        NotBiconnected: no such numbering exists.
        ValueError: s equals t, or s and t are not adjacent.
    """
    if s == t:
        raise ValueError("the two poles must differ")
    if t not in {g.head(d) for d in g.rotation(s)}:
        raise ValueError(f"poles {s} and {t} must be adjacent")

    # depth-first search from s with t as the forced first child
    pre: dict[int, int] = {s: 0, t: 1}
    parent: dict[int, int] = {t: s}
    low_vertex: dict[int, int] = {}
    order: list[int] = []
    counter = 2
    stack: list[int] = [t]
    todo: dict[int, list[int]] = {t: [g.head(d) for d in g.rotation(t)]}
    while stack:
        v = stack[-1]
        rest = todo[v]
        if rest:
            w = rest.pop(0)
            if w == v:
                continue
            if w not in pre:
                pre[w] = counter
                counter += 1
                parent[w] = v
                order.append(w)
                todo[w] = [g.head(d) for d in g.rotation(w)]
                stack.append(w)
        else:
            stack.pop()
            best = v
            tree_edge_seen = False
            for w in (g.head(d) for d in g.rotation(v)):
                if w == v:
                    continue
                if w == parent.get(v) and not tree_edge_seen:
                    # a second parallel edge to the parent is a back edge
                    tree_edge_seen = True
                    continue
                cand = low_vertex.get(w, w) if parent.get(w) == v else w
                if pre.get(cand, len(pre)) < pre[best]:
                    best = cand
            low_vertex[v] = best

    if len(pre) != g.n:
        raise NotBiconnected(f"only reached {len(pre)} of {g.n} vertices "
                             f"from {s}")

    seq: list[int] = [s, t]
    sign: dict[int, str] = {s: "-"}
    for v in order:
        p = parent[v]
        if sign.get(low_vertex[v], "+") == "-":
            seq.insert(seq.index(p), v)
            sign[p] = "+"
        else:
            seq.insert(seq.index(p) + 1, v)
            sign[p] = "-"
    numbers = {v: i + 1 for i, v in enumerate(seq)}

    for v in g.vertices:
        if v in (s, t):
            continue
        around = {numbers[g.head(d)] for d in g.rotation(v)}
        if not (min(around) < numbers[v] < max(around)):
            raise NotBiconnected(
                f"vertex {v} cannot be numbered between two neighbours; "
                f"the graph is not 2-connected")
    return numbers


# --- bar visibility data ----------------------------------------------------


@dataclass(frozen=True)
class Bar:
    """Horizontal bar of one vertex: row y, columns x0..x1 inclusive."""
    vertex: int
    y: int
    x0: int
    x1: int


@dataclass(frozen=True)
class VisibilitySegment:
    """Vertical edge segment at column x from row y0 up to row y1.

    ``crossed`` lists the vertices whose bars the open interior passes
    through (empty in a plain visibility representation).
    """
    u: int
    v: int
    x: int
    y0: int
    y1: int
    crossed: tuple[int, ...] = ()


@dataclass(frozen=True)
class BarVisibilityRep:
    """A full layout: one bar per vertex, one segment per edge."""
    bars: tuple[Bar, ...]
    segments: tuple[VisibilitySegment, ...]

    def bar_of(self, v: int) -> Bar:
        for b in self.bars:
            if b.vertex == v:
                return b
        raise KeyError(f"no bar for vertex {v}")

    @property
    def max_crossed(self) -> int:
        return max((len(seg.crossed) for seg in self.segments), default=0)


def verify_bar1(rep: BarVisibilityRep, limit: int = 1) -> list[str]:
    """Recheck a layout from its coordinates alone.

    Returns a list of human-readable problems; an empty list means the
    representation is a valid bar visibility layout in which every
    segment crosses at most ``limit`` bars and the stored crossing lists
    are accurate.
    """
    problems: list[str] = []
    by_row: dict[int, Bar] = {}
    for b in rep.bars:
        if b.x0 > b.x1:
            problems.append(f"bar {b.vertex} has empty extent")
        other = by_row.get(b.y)
        if other is not None and not (b.x1 < other.x0 or other.x1 < b.x0):
            problems.append(f"bars {other.vertex} and {b.vertex} overlap "
                            f"in row {b.y}")
        by_row[b.y] = b
    bars = {b.vertex: b for b in rep.bars}

    by_col: dict[int, list[VisibilitySegment]] = {}
    for seg in rep.segments:
        by_col.setdefault(seg.x, []).append(seg)
        if seg.y0 >= seg.y1:
            problems.append(f"segment {seg.u}-{seg.v} is not upward")
            continue
        for end, want in ((seg.y0, seg.u), (seg.y1, seg.v)):
            b = bars.get(want)
            if b is None or b.y != end or not (b.x0 <= seg.x <= b.x1):
                problems.append(f"segment {seg.u}-{seg.v} at column "
                                f"{seg.x} misses the bar of {want}")
        hit = tuple(sorted(
            b.vertex for b in rep.bars
            if seg.y0 < b.y < seg.y1 and b.x0 <= seg.x <= b.x1))
        if hit != tuple(sorted(seg.crossed)):
            problems.append(f"segment {seg.u}-{seg.v} crosses bars of "
                            f"{list(hit)} but records {list(seg.crossed)}")
        if len(hit) > limit:
            problems.append(f"segment {seg.u}-{seg.v} crosses {len(hit)} "
                            f"bars, more than the {limit} allowed")

    for x, segs in by_col.items():
        segs = sorted(segs, key=lambda s: (s.y0, s.y1))
        for a, b in zip(segs, segs[1:]):
            if b.y0 < a.y1:
                problems.append(f"segments {a.u}-{a.v} and {b.u}-{b.v} "
                                f"overlap in column {x}")
            elif b.y0 == a.y1 and a.v != b.u:
                problems.append(f"segments {a.u}-{a.v} and {b.u}-{b.v} "
                                f"touch in column {x} without a shared "
                                f"vertex")
    return problems


# --- the planar layout ------------------------------------------------------


def _smallest_edge(g: PlaneMultigraph) -> tuple[int, int]:
    best = None
    for e in g.edges:
        u, v = g.edge_endpoints(e)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if best is None or key < best:
            best = key
    if best is None:
        raise ValueError("the graph has no non-loop edge")
    return best


class _TTLayout:
    """The unscaled upward layout, poles at the smallest edge's ends."""

    def __init__(self, g: PlaneMultigraph):
        s, t = _smallest_edge(g)
        self.y = st_number(g, s, t)
        for e in g.edges:
            u, v = g.edge_endpoints(e)
            if u == v:
                raise ValueError("bar visibility needs a loopless graph")

        # the dart of each edge that points upwards
        self.up: dict[frozenset, int] = {}
        for e in g.edges:
            d = min(e)
            self.up[e] = d if self.y[g.origin(d)] < self.y[g.head(d)] else \
                g.twin(d)

        st_darts = [d for d in g.rotation(s) if g.head(d) == t]
        d_st = min(st_darts)
        self.outer = g.face_of(d_st)

        # faces ordered left to right; the outer face splits into a far
        # left node (faces list index -1) and far right node (index nf)
        nf = g.f
        left_node: dict[frozenset, int] = {}
        right_node: dict[frozenset, int] = {}
        succ: dict[int, set] = {i: set() for i in range(-1, nf + 1)}
        for e in g.edges:
            d = self.up[e]
            lf = g.face_of(d)
            rf = g.face_of(g.twin(d))
            ln = -1 if lf == self.outer else lf
            rn = nf if rf == self.outer else rf
            left_node[e] = ln
            right_node[e] = rn
            if ln != rn:
                succ[ln].add(rn)
        indeg = {i: 0 for i in succ}
        for i, outs in succ.items():
            for j in outs:
                indeg[j] += 1
        ready = sorted(i for i, k in indeg.items() if k == 0)
        topo: list[int] = []
        while ready:
            i = ready.pop(0)
            topo.append(i)
            for j in sorted(succ[i]):
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
            ready.sort()
        if len(topo) != len(succ):
            raise AssertionError("face order has a cycle; the embedding "
                                 "is not an upward planar one")
        self.face_x = {i: pos for pos, i in enumerate(topo)}
        self.x_edge: dict[frozenset, int] = {
            e: self.face_x[left_node[e]] for e in g.edges}
        self.rightmost = len(topo) - 1

        self.bar_x: dict[int, list[int]] = {}
        for v in g.vertices:
            cols = [self.x_edge[g.edge_of(d)] for d in g.rotation(v)]
            self.bar_x[v] = [min(cols), max(cols)]


def bar_visibility(g: PlaneMultigraph) -> BarVisibilityRep:
    """A visibility representation of a 2-connected loopless plane graph.

    Every vertex becomes a bar, every edge a vertical segment touching
    exactly its two end bars.  The poles, the lowest and highest bars,
    are the ends of the edge with the least sorted endpoint pair.

    Raises:
        NotBiconnected: the graph has no st-numbering.
        ValueError: there are loops, or the graph has no non-loop edge.
    """
    lay = _TTLayout(g)
    bars = tuple(Bar(v, lay.y[v], lay.bar_x[v][0], lay.bar_x[v][1])
                 for v in sorted(g.vertices, key=lambda v: lay.y[v]))
    segs = []
    for e in sorted(g.edges, key=min):
        d = lay.up[e]
        u, v = g.origin(d), g.head(d)
        segs.append(VisibilitySegment(u, v, lay.x_edge[e],
                                      lay.y[u], lay.y[v]))
    rep = BarVisibilityRep(bars, tuple(segs))
    problems = verify_bar1(rep, 0)
    if problems:
        raise AssertionError(f"planar layout failed its own check: "
                             f"{problems[0]}")
    return rep


# --- bar 1-visibility for optimal 2-planar drawings -------------------------

_STRIDE = 16
_SLOTS = (2, 5, 8, 11, 14)


def extend_to_bar1(d: Drawing) -> BarVisibilityRep:
    """Bar 1-visibility layout of a simple optimal 2-planar drawing.

    The true-planar skeleton is laid out as a planar visibility
    representation; every pentagonal face then routes its five chords
    through a private column block in which each chord crosses at most
    one corner bar.

    Raises:
        NotSimple: the drawing has loops or parallel edges.
        NotOptimal2Planar: the characterization checks fail.
    """
    if not is_simple(d):
        raise NotSimple("bar 1-visibility extension needs a simple graph")
    report = check_optimal_2planar(d, fail_fast=True)
    if not report.optimal:
        raise NotOptimal2Planar(str(report.failures[0]))

    skeleton = true_planar_skeleton(d)
    lay = _TTLayout(skeleton)
    y = lay.y

    bar_x = {v: [lo * _STRIDE, hi * _STRIDE]
             for v, (lo, hi) in lay.bar_x.items()}
    segments: list[VisibilitySegment] = []
    for e in sorted(skeleton.edges, key=min):
        dart = lay.up[e]
        u, v = skeleton.origin(dart), skeleton.head(dart)
        segments.append(VisibilitySegment(
            u, v, lay.x_edge[e] * _STRIDE, y[u], y[v]))

    assignment = assign_crossed_edges_to_faces(d)
    for idx, walk in enumerate(skeleton.faces()):
        chords = assignment.get(idx, ())
        if not chords:
            continue
        positions = chord_positions(d, idx)
        if idx == lay.outer:
            base = (lay.rightmost + 1) * _STRIDE
        else:
            base = (lay.face_x[idx] - 1) * _STRIDE
        block = [base + off for off in _SLOTS]
        rows = [y[v] for v in walk.vertices]
        span = {c: tuple(sorted(positions[c])) for c in chords}
        placed = _place_chords(
            [span[c] for c in chords], rows,
            [tuple(bar_x[v]) for v in walk.vertices], block)
        for c, col in zip(chords, placed):
            i, j = span[c]
            vi, vj = walk.vertices[i], walk.vertices[j]
            for v in (vi, vj):
                bar_x[v][0] = min(bar_x[v][0], col)
                bar_x[v][1] = max(bar_x[v][1], col)
            lo, hi = sorted((y[vi], y[vj]))
            if y[vi] > y[vj]:
                vi, vj = vj, vi
            segments.append(VisibilitySegment(vi, vj, col, lo, hi))

    # recompute every crossing from the final bar extents
    final = []
    for seg in segments:
        hit = tuple(sorted(
            v for v, (x0, x1) in bar_x.items()
            if seg.y0 < y[v] < seg.y1 and x0 <= seg.x <= x1))
        final.append(VisibilitySegment(seg.u, seg.v, seg.x,
                                       seg.y0, seg.y1, hit))
    bars = tuple(Bar(v, y[v], bar_x[v][0], bar_x[v][1])
                 for v in sorted(bar_x, key=lambda v: y[v]))
    rep = BarVisibilityRep(bars, tuple(final))
    problems = verify_bar1(rep, 1)
    if problems:
        raise LayoutFailure(f"extension failed its own check: "
                            f"{problems[0]}")
    return rep


def _place_chords(spans: list[tuple[int, int]], rows: list[int],
                  bars: list[tuple[int, int]],
                  block: list[int]) -> list[int]:
    """Columns for one face's chords so each crosses at most one bar.

    ``spans`` lists the corner position pairs of the chords, ``rows``
    and ``bars`` the st-row and current bar extent of each corner, and
    ``block`` the available columns.  Only this face's corner bars can
    reach the block, so the search is purely local.
    """
    k = len(spans)
    for perm in permutations(range(k)):
        cols = [block[perm[i]] for i in range(k)]
        ext = [list(b) for b in bars]
        for (i, j), col in zip(spans, cols):
            for w in (i, j):
                ext[w][0] = min(ext[w][0], col)
                ext[w][1] = max(ext[w][1], col)
        ok = True
        for (i, j), col in zip(spans, cols):
            lo, hi = sorted((rows[i], rows[j]))
            hits = sum(
                1 for w in range(len(rows))
                if w not in (i, j) and lo < rows[w] < hi
                and ext[w][0] <= col <= ext[w][1])
            if hits > 1:
                ok = False
                break
        if ok:
            return cols
    raise LayoutFailure("no chord order fits this face")
