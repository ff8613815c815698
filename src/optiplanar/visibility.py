"""Bar visibility layouts for skeletons and optimal 2-planar drawings.

A bar visibility representation places every vertex as a horizontal bar
(one per row) and every edge as a vertical segment whose open interior
touches no bar; in a bar 1-visibility representation a segment may cross
at most one bar.  One rule says which bars a segment crosses: the sorted
vertices of the bars its open interior passes.  ``extend_to_bar1``
records crossings by it and ``verify_bar1`` checks them by it; the
checker also refuses two bars that overlap in a row (it compares each
bar with its neighbour in (row, x0) order) and a vertex with two bars.

The planar layout is Tamassia and Tollis's for st-planar graphs, with
every edge named by its smaller dart: the poles are the ends of the
smallest non-loop edge, an st-numbering gives every other vertex a lower
and a higher neighbour, edges point upwards, faces are ordered left to
right smallest ready face first, and every edge gets the column of the
face on its left.  A simple optimal 2-planar drawing then extends to bar
1-visibility: its true-planar skeleton gets the planar layout on a
16-fold horizontal grid, and the five chords of each pentagonal face go
into a private block of columns just left of the face's own column
(right of everything for the outer face).  Inside a block only the bars
of that face's five corners can interfere, so a small search over the
120 ways to order the chords always finds an assignment where each
chord crosses at most one bar.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import permutations

from .characterize import check_optimal_2planar, chord_positions
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
    stack: list[int] = [t]
    todo = {t: map(g.head, g.rotation(t))}  # each vertex's unseen heads
    while stack:
        v = stack[-1]
        w = next(todo[v], None)
        if w is not None:
            if w not in pre:
                pre[w] = len(pre)
                parent[w] = v
                order.append(w)
                todo[w] = map(g.head, g.rotation(w))
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


def _crossed(seg: VisibilitySegment,
             bars: tuple[Bar, ...]) -> tuple[int, ...]:
    """The sorted vertices of the bars that the open interior of ``seg``
    passes."""
    return tuple(sorted(
        b.vertex for b in bars
        if seg.y0 < b.y < seg.y1 and b.x0 <= seg.x <= b.x1))


def verify_bar1(rep: BarVisibilityRep, limit: int = 1) -> list[str]:
    """Recheck a layout from its coordinates alone.

    Returns a list of human-readable problems; an empty list means the
    representation is a valid bar visibility layout with one bar per
    vertex and no two bars overlapping in a row, in which every segment
    crosses at most ``limit`` bars and the stored crossing lists are
    accurate.
    """
    problems: list[str] = []
    bars: dict[int, Bar] = {}
    for b in rep.bars:
        if b.x0 > b.x1:
            problems.append(f"bar {b.vertex} has empty extent")
        if b.vertex in bars:
            problems.append(f"vertex {b.vertex} has two bars")
        bars[b.vertex] = b
    rows = sorted(rep.bars, key=lambda b: (b.y, b.x0))
    for a, b in zip(rows, rows[1:]):
        if a.y == b.y and not (b.x1 < a.x0 or a.x1 < b.x0):
            problems.append(f"bars {a.vertex} and {b.vertex} overlap "
                            f"in row {b.y}")

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
        hit = _crossed(seg, rep.bars)
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


def _bars(y: dict[int, int], bar_x: dict[int, list[int]]) -> tuple[Bar, ...]:
    """One bar per vertex of ``bar_x``, lowest row first."""
    return tuple(Bar(v, y[v], *bar_x[v]) for v in sorted(bar_x, key=y.get))


def _reach(bar_x: dict[int, list[int]], v: int, x: int) -> None:
    """Widen the bar of ``v`` to column ``x``."""
    ext = bar_x.setdefault(v, [x, x])
    ext[0] = min(ext[0], x)
    ext[1] = max(ext[1], x)


# --- the planar layout ------------------------------------------------------


class _TTLayout:
    """The upward layout: st-numbers ``y``, the column ``face_x`` of every
    node of the face order (the outer face splits into nodes -1 and
    ``g.f``), and the upward dart and column of every edge in ``upward``,
    edges in the order of their smaller darts."""

    def __init__(self, g: PlaneMultigraph):
        self.g = g
        edges: list[int] = []  # every edge by its smaller dart
        poles = None
        loop = False
        for d in sorted(g.darts):
            if d < g.twin(d):
                edges.append(d)
                u, v = sorted((g.origin(d), g.head(d)))
                if u == v:
                    loop = True
                elif poles is None or (u, v) < poles:
                    poles = (u, v)
        if poles is None:
            raise ValueError("the graph has no non-loop edge")
        s, t = poles
        self.y = y = st_number(g, s, t)
        if loop:
            raise ValueError("bar visibility needs a loopless graph")
        self.outer = g.face_of(min(d for d in g.rotation(s)
                                   if g.head(d) == t))

        # faces ordered left to right, the smallest ready node first
        nf = g.f
        succ: dict[int, set] = {i: set() for i in range(-1, nf + 1)}
        indeg = dict.fromkeys(succ, 0)
        up_left: list[tuple[int, int]] = []
        for d in edges:
            if y[g.origin(d)] > y[g.head(d)]:
                d = g.twin(d)
            lf, rf = g.face_of(d), g.face_of(g.twin(d))
            ln = -1 if lf == self.outer else lf
            rn = nf if rf == self.outer else rf
            up_left.append((d, ln))
            if ln != rn and rn not in succ[ln]:
                succ[ln].add(rn)
                indeg[rn] += 1
        ready = [i for i, k in indeg.items() if k == 0]
        heapq.heapify(ready)
        topo: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            topo.append(i)
            for j in succ[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(ready, j)
        if len(topo) != len(succ):
            raise AssertionError("face order has a cycle; the embedding "
                                 "is not an upward planar one")
        self.face_x = {i: pos for pos, i in enumerate(topo)}
        self.upward = [(d, self.face_x[ln]) for d, ln in up_left]

    def scaled(self, stride: int) -> tuple[dict[int, list[int]],
                                            list[VisibilitySegment]]:
        """Bar extents and edge segments with every column times
        ``stride``; a bar spans the columns of its vertex's edges."""
        g, y = self.g, self.y
        bar_x: dict[int, list[int]] = {}
        segments = []
        for d, x in self.upward:
            u, v, x = g.origin(d), g.head(d), x * stride
            segments.append(VisibilitySegment(u, v, x, y[u], y[v]))
            _reach(bar_x, u, x)
            _reach(bar_x, v, x)
        return bar_x, segments


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
    bar_x, segments = lay.scaled(1)
    rep = BarVisibilityRep(_bars(lay.y, bar_x), tuple(segments))
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
    bar_x, segments = lay.scaled(_STRIDE)

    for idx, walk in enumerate(skeleton.faces()):
        positions = chord_positions(d, idx)
        if not positions:
            continue
        if idx == lay.outer:
            base = len(lay.face_x) * _STRIDE
        else:
            base = (lay.face_x[idx] - 1) * _STRIDE
        spans = [tuple(sorted(ends)) for ends in positions.values()]
        placed = _place_chords(
            spans, [y[v] for v in walk.vertices],
            [tuple(bar_x[v]) for v in walk.vertices],
            [base + off for off in _SLOTS])
        for (i, j), col in zip(spans, placed):
            u, v = sorted((walk.vertices[i], walk.vertices[j]), key=y.get)
            _reach(bar_x, u, col)
            _reach(bar_x, v, col)
            segments.append(VisibilitySegment(u, v, col, y[u], y[v]))

    # record every crossing from the final bar extents
    bars = _bars(y, bar_x)
    rep = BarVisibilityRep(bars, tuple(
        VisibilitySegment(seg.u, seg.v, seg.x, seg.y0, seg.y1,
                          _crossed(seg, bars))
        for seg in segments))
    problems = verify_bar1(rep, 1)
    if problems:
        raise LayoutFailure(f"extension failed its own check: "
                            f"{problems[0]}")
    return rep


def _place_chords(spans: list[tuple[int, int]], rows: list[int],
                  bars: list[tuple[int, int]],
                  block: list[int]) -> tuple[int, ...]:
    """Columns for one face's chords so each crosses at most one bar.

    ``spans`` lists the corner position pairs of the chords, ``rows``
    and ``bars`` the st-row and current bar extent of each corner, and
    ``block`` the available columns.  Only this face's corner bars can
    reach the block, so the search is purely local.
    """
    # the corners whose rows lie strictly between each chord's ends
    between = [[w for w in range(len(rows))
                if min(rows[i], rows[j]) < rows[w] < max(rows[i], rows[j])]
               for i, j in spans]
    for cols in permutations(block[:len(spans)]):
        ext = [list(b) for b in bars]
        for (i, j), col in zip(spans, cols):
            for w in (i, j):
                ext[w][0] = min(ext[w][0], col)
                ext[w][1] = max(ext[w][1], col)
        if all(sum(ext[w][0] <= col <= ext[w][1] for w in ws) <= 1
               for ws, col in zip(between, cols)):
            return cols
    raise LayoutFailure("no chord order fits this face")
