"""Structural checks for optimality of 2- and 3-planar drawings.

``RULES`` is the one statement of the paper's theorem, one row per k,
read by the checker, the generator and the command line.  A drawing on
n >= 3 vertices is optimal k-planar iff it has ``slope * n + intercept``
edges (5n - 10 for k = 2, 11n/2 - 11 for k = 3), no edge is crossed more
than k times, its uncrossed edges form a connected spanning skeleton
whose faces all have the row's length (5, 6), and every face holds the
chords of one of the row's patterns, routed entirely inside it.

Chords are read off the skeleton's corners: ``_corners`` takes one pass
over the real vertices' rotations and gives each crossed edge end the
face and walk position of the corner it leaves, and a crossed edge is a
chord of the face whose corners both its ends leave.  Strict mode checks
the patterns by those corner positions; count mode only counts them,
which is equivalent for generated drawings but lets through hand-made
ones that reach the count another way.
Checks are reported individually so a failing drawing explains itself;
``fail_fast`` stops at the first failure, which keeps large sweeps (for
instance over all single-edge deletions) cheap because the edge count is
checked first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .drawing import (
    Drawing,
    homotopic_duplicates,
    is_k_planar,
    skeleton_edge_ids,
    true_planar_skeleton,
    validate,
)
from .plane import Dart, _once


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one structural check."""
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: " \
               f"{self.detail}"


@dataclass(frozen=True)
class CharacterizationReport:
    """All check outcomes for one drawing against one k."""
    k: int
    checks: tuple[CheckResult, ...]

    @property
    def optimal(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def lines(self) -> list[str]:
        out = [str(c) for c in self.checks]
        verdict = "optimal" if self.optimal else "not optimal"
        out.append(f"verdict: {verdict} {self.k}-planar")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())


@dataclass(frozen=True)
class Rule:
    """One row of ``RULES``: the shape of an optimal k-planar drawing.

    ``patterns`` are the allowed chord sets of a face, as pairs of corner
    positions; ``pattern_name`` names them in messages.
    """
    face_length: int
    crossing_limit: int
    slope: Fraction
    intercept: Fraction
    patterns: tuple[tuple[tuple[int, int], ...], ...]
    pattern_name: str


def _shorts(s: int) -> tuple[tuple[int, int], ...]:
    # the chords between corners at cyclic distance two
    return tuple((i, (i + 2) % s) for i in range(s))


RULES = MappingProxyType({
    2: Rule(5, 2, Fraction(5), Fraction(-10), (_shorts(5),), "pentagram"),
    # pattern i omits the middle chord (i, i + 3); with all three, a
    # middle chord would be crossed four times
    3: Rule(6, 3, Fraction(11, 2), Fraction(-11),
            tuple(_shorts(6) + tuple((j, j + 3) for j in range(3) if j != i)
                  for i in range(3)),
            "hexagon pattern"),
})


def _rule(k: int) -> Rule:
    try:
        return RULES[k]
    except KeyError:
        raise ValueError(f"k must be {' or '.join(map(str, RULES))}, "
                         f"got {k}") from None


@dataclass(frozen=True)
class DensityAudit:
    """Edge count of a drawing against the k-planar bound.

    Below n = 3 there is no bound: ``bound`` and ``slack`` are None and
    ``at_bound`` is False.
    """
    k: int
    n: int
    m: int
    bound: Fraction | None
    slack: Fraction | None
    at_bound: bool


def density_bound(k: int, n: int) -> Fraction:
    """The maximum edge count of a k-planar multigraph on n vertices.

    Simple 3-planar graphs stay 1/2 below the k = 3 bound, so optimal
    3-planar multigraphs always contain loops or parallels.  The bounds
    are stated for n >= 3; below that there is none.
    """
    row = _rule(k)
    if n < 3:
        raise ValueError(f"no density bound below n = 3, got n = {n}")
    return row.slope * n + row.intercept


def density_audit(d: Drawing, k: int) -> DensityAudit:
    """Compare a drawing's edge count to the k-planar density bound."""
    _rule(k)  # an unknown k is refused at every n
    bound = density_bound(k, d.n) if d.n >= 3 else None
    slack = None if bound is None else d.m - bound
    return DensityAudit(k=k, n=d.n, m=d.m, bound=bound, slack=slack,
                        at_bound=slack == 0)


@_once
def _corners(d: Drawing) -> dict[Dart, tuple[int, int]]:
    """The corner of the skeleton that each crossed edge end leaves.

    Maps every non-skeleton dart that leaves a real vertex to (skeleton
    face index, walk position).  The skeleton's face walks are read as
    the dart lists it traced, so no FaceWalk is built.  Corner i of a
    walk holds the darts that leave the origin of ``walk[i]`` clockwise
    after ``twin(walk[i - 1])`` and before ``walk[i]``, so each such dart
    takes the corner of the next skeleton dart clockwise.  A vertex
    without a skeleton dart has no corners.
    """
    corner = {dart: (idx, i)
              for idx, walk in enumerate(true_planar_skeleton(d)._walks)
              for i, dart in enumerate(walk)}
    out: dict[Dart, tuple[int, int]] = {}
    for v in d.real_vertices:
        rot = d.plane.rotation(v)
        # counterclockwise from the last dart, whose next skeleton dart
        # clockwise is the first one of the rotation
        at = next((corner[x] for x in rot if x in corner), None)
        if at is None:
            continue
        for x in reversed(rot):
            if x in corner:
                at = corner[x]
            else:
                out[x] = at
    return out


@_once
def assign_crossed_edges_to_faces(d: Drawing) -> dict[int, tuple[int, ...]]:
    """Which crossed base edges are chords of which skeleton face.

    Faces are indexed by their position in the skeleton's face list.  A
    crossed edge belongs to the face whose corners both its ends leave;
    an edge with an end at a vertex without skeleton edges, or with its
    ends at corners of two different faces, lands under key -1.  Faces
    without crossed edges get no entry.
    """
    corners = _corners(d)
    twin = d.plane.twin
    sk_ids = skeleton_edge_ids(d)
    out: dict[int, list[int]] = {}
    for e in sorted(d.base_edges):
        if e in sk_ids:
            continue
        path = d.edge_paths[e]
        first, last = corners.get(path[0]), corners.get(twin(path[-1]))
        face = first[0] if first and last and first[0] == last[0] else -1
        out.setdefault(face, []).append(e)
    return {f: tuple(es) for f, es in sorted(out.items())}


def chord_positions(d: Drawing, face_index: int) -> dict[int, tuple[int, int]]:
    """Walk positions at which each chord of a skeleton face attaches.

    For the skeleton face with the given index, maps every crossed base
    edge assigned to it to the ordered pair of walk positions of the
    corners its two ends leave.

    Raises:
        IndexError: ``face_index`` is not the index of a skeleton face.
    """
    n_faces = len(true_planar_skeleton(d)._walks)
    if face_index not in range(n_faces):
        raise IndexError(f"face index {face_index} is not in "
                         f"range({n_faces})")
    corners = _corners(d)
    twin = d.plane.twin
    out: dict[int, tuple[int, int]] = {}
    for e in assign_crossed_edges_to_faces(d).get(face_index, ()):
        path = d.edge_paths[e]
        out[e] = (corners[path[0]][1], corners[twin(path[-1])][1])
    return out


_NO_FACE = "the skeleton has no face"


def _run_checks(d: Drawing, k: int, *, strict: bool,
                fail_fast: bool) -> CharacterizationReport:
    row = RULES[k]
    want_len = row.face_length
    want_chords = len(row.patterns[0])
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str) -> bool:
        checks.append(CheckResult(name, passed, detail))
        return fail_fast and not passed

    def report() -> CharacterizationReport:
        return CharacterizationReport(k, tuple(checks))

    audit = density_audit(d, k)
    if add("density",
           audit.at_bound,
           f"m = {audit.m}, bound = {audit.bound}" if audit.bound is not None
           else f"m = {audit.m}, no density bound below n = 3"):
        return report()

    problems = validate(d)
    if add("valid-drawing",
           not problems,
           "planarization is clean" if not problems else str(problems[0])):
        return report()

    limit = row.crossing_limit
    ok = is_k_planar(d, limit)
    if add(f"{k}-planar",
           ok,
           f"every edge crossed at most {limit} times" if ok
           else f"some edge is crossed more than {limit} times"):
        return report()

    skeleton = true_planar_skeleton(d)
    connected = skeleton.is_connected()
    if add("skeleton-connected",
           connected,
           f"uncrossed edges span all {d.n} vertices in one piece"
           if connected else
           f"true-planar skeleton has {skeleton.n_components} components"):
        return report()

    n_faces = len(skeleton._walks)
    lengths = sorted(set(map(len, skeleton._walks)))
    ok = lengths == [want_len]
    if add("face-lengths",
           ok,
           f"all {n_faces} skeleton faces have length {want_len}" if ok
           else f"skeleton face lengths are {lengths}, need all {want_len}"):
        return report()

    assignment = assign_crossed_edges_to_faces(d)
    stray = assignment.get(-1, ())
    counts = {idx: len(assignment.get(idx, ())) for idx in range(n_faces)}
    bad = {idx: c for idx, c in counts.items() if c != want_chords}
    ok = n_faces > 0 and not stray and not bad
    if ok:
        detail = f"every face holds exactly {want_chords} crossed edges"
    elif stray:
        detail = f"edges {list(stray)} are not inside a single face"
    elif bad:
        detail = f"faces with wrong chord counts: {bad}"
    else:
        detail = _NO_FACE
    if add("chords-per-face", ok, detail):
        return report()

    if strict:
        patterns = {frozenset(map(frozenset, p)) for p in row.patterns}
        ok = n_faces > 0
        detail = (f"every face holds a {row.pattern_name}" if ok
                  else _NO_FACE)
        for idx in range(n_faces):
            pairs = [frozenset(p) for p in chord_positions(d, idx).values()]
            if not (len(pairs) == len(set(pairs))
                    and frozenset(pairs) in patterns):
                ok = False
                detail = f"face {idx} deviates from the {row.pattern_name}"
                break
        if add("chord-pattern", ok, detail):
            return report()

    dups = homotopic_duplicates(d)
    add("no-homotopic-duplicates",
        not dups,
        "no contractible loop or homotopic parallel pair" if not dups
        else f"forbidden duplicates: {dups[:3]}")
    return report()


def check_optimal_2planar(d: Drawing, *,
                          fail_fast: bool = False) -> CharacterizationReport:
    """Check every condition of ``RULES[2]`` by chord count, and that the
    planarization is valid with no homotopic duplicates."""
    return _run_checks(d, 2, strict=False, fail_fast=fail_fast)


def check_optimal_3planar(d: Drawing, *, mode: str = "strict",
                          fail_fast: bool = False) -> CharacterizationReport:
    """Check every condition of ``RULES[3]``, and that the planarization
    is valid with no homotopic duplicates.  ``mode`` "strict" checks the
    chord pattern of every face, "count" only the number of chords."""
    if mode not in ("strict", "count"):
        raise ValueError(f"mode must be 'strict' or 'count', got {mode!r}")
    return _run_checks(d, 3, strict=(mode == "strict"), fail_fast=fail_fast)
