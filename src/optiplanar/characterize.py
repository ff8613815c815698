"""Structural checks for optimality of 2- and 3-planar drawings.

A drawing on n vertices is optimal 2-planar when it has 5n - 10 edges
and optimal 3-planar when it has 11n/2 - 11 edges.  Both properties have
a purely structural characterization: the uncrossed edges must form a
connected spanning sub-drawing (the true-planar skeleton) all of whose
faces are pentagons, respectively hexagons, and every face must contain
exactly 5, respectively 8, crossed edges routed entirely inside it.

For 3-planar drawings the strict mode additionally pins down *which*
chords sit in each hexagonal face: the six chords between positions at
cyclic distance two plus exactly two of the three middle chords joining
opposite positions.  Counting 8 chords per face is equivalent for
drawings produced here, but the positional check catches hand-made
drawings that reach the count with a different, invalid layout.

Checks are reported individually so a failing drawing explains itself;
``fail_fast`` stops at the first failure, which keeps large sweeps (for
instance over all single-edge deletions) cheap because the edge count is
checked first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .drawing import (
    Drawing,
    _once_per_drawing,
    homotopic_duplicates,
    is_k_planar,
    is_simple,
    skeleton_edge_ids,
    true_planar_skeleton,
    validate,
)
from .plane import _cut_darts, _face_regions


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
class DensityAudit:
    """Edge count of a drawing against the k-planar bounds.

    Below n = 3 there is no bound: ``bound`` and ``slack`` (and the
    simple ones) are None and ``at_bound`` is False.
    """
    k: int
    n: int
    m: int
    bound: Fraction | None
    slack: Fraction | None
    at_bound: bool
    simple: bool
    simple_bound: Fraction | None
    simple_slack: Fraction | None


def density_bound(k: int, n: int, *, simple: bool = False) -> Fraction:
    """The maximum edge count of a k-planar multigraph on n vertices.

    For k = 3 the bound for simple graphs is lower by 1/2; optimal
    3-planar multigraphs therefore always contain loops or parallels.
    The bounds are stated for n >= 3; below that there is none.
    """
    if k not in (2, 3):
        raise ValueError(f"k must be 2 or 3, got {k}")
    if n < 3:
        raise ValueError(f"no density bound below n = 3, got n = {n}")
    if k == 2:
        return Fraction(5 * n - 10)
    base = Fraction(11, 2) * n - 11
    return base - Fraction(1, 2) if simple else base


def density_audit(d: Drawing, k: int) -> DensityAudit:
    """Compare a drawing's edge count to the relevant density bounds."""
    n, m = d.n, d.m
    simple = is_simple(d)
    if n < 3 and k in (2, 3):
        return DensityAudit(k=k, n=n, m=m, bound=None, slack=None,
                            at_bound=False, simple=simple,
                            simple_bound=None, simple_slack=None)
    bound = density_bound(k, n)
    sbound = density_bound(k, n, simple=True) if k == 3 else None
    return DensityAudit(
        k=k, n=n, m=m, bound=bound, slack=Fraction(m) - bound,
        at_bound=Fraction(m) == bound, simple=simple,
        simple_bound=sbound,
        simple_slack=None if sbound is None else Fraction(m) - sbound)


@_once_per_drawing
def assign_crossed_edges_to_faces(d: Drawing) -> dict[int, tuple[int, ...]]:
    """Which crossed base edges live inside which skeleton face.

    Faces are indexed by their position in the skeleton's face list.
    Every crossed edge whose segments all lie inside a single skeleton
    face is assigned there; edges that touch several faces, or a face
    that cannot be told apart from another, land under key -1.  Faces
    without crossed edges get no entry.
    """
    plane = d.plane
    sk_ids = skeleton_edge_ids(d)
    cut = _cut_darts(plane, (path[0] for e, path in d.edge_paths.items()
                             if e in sk_ids))
    labels, _count = _face_regions(plane, cut)

    skeleton = true_planar_skeleton(d)
    region_face: dict[int, int] = {}
    ambiguous: set[int] = set()
    for idx, walk in enumerate(skeleton.faces()):
        label = labels[plane.face_of(walk.darts[0])]
        if label in region_face:
            ambiguous.add(label)
        region_face[label] = idx

    out: dict[int, list[int]] = {}
    for e in sorted(d.base_edges):
        if e in sk_ids:
            continue
        regions = {labels[plane.face_of(g)] for g in d.edge_paths[e]}
        regions |= {labels[plane.face_of(plane.twin(g))]
                    for g in d.edge_paths[e]}
        if len(regions) == 1:
            label = regions.pop()
            if label in region_face and label not in ambiguous:
                out.setdefault(region_face[label], []).append(e)
                continue
        out.setdefault(-1, []).append(e)
    return {f: tuple(es) for f, es in sorted(out.items())}


def chord_positions(d: Drawing, face_index: int) -> dict[int, tuple[int, int]]:
    """Walk positions at which each chord of a skeleton face attaches.

    For the skeleton face with the given index, maps every crossed base
    edge assigned to it to the ordered pair of walk positions its two
    ends occupy.  An end that does not leave a corner of this face maps
    to position -1, which no valid pattern contains.
    """
    plane = d.plane
    skeleton = true_planar_skeleton(d)
    walk = skeleton.faces()[face_index]
    s = walk.length

    corner_of: dict[int, int] = {}
    for i in range(s):
        v = walk.vertices[i]
        rot = plane.rotation(v)
        start = plane.twin(walk.darts[(i - 1) % s])
        j = rot.index(start)
        while True:
            j = (j + 1) % len(rot)
            if rot[j] == walk.darts[i]:
                break
            corner_of[rot[j]] = i

    assigned = assign_crossed_edges_to_faces(d).get(face_index, ())
    out: dict[int, tuple[int, int]] = {}
    for e in assigned:
        path = d.edge_paths[e]
        first = path[0]
        last = plane.twin(path[-1])
        out[e] = (corner_of.get(first, -1), corner_of.get(last, -1))
    return out


# corner position pairs of a hexagonal face's chords (see chord_positions)
_SHORT = frozenset(frozenset((i, (i + 2) % 6)) for i in range(6))
_MIDDLE = frozenset(frozenset((i, i + 3)) for i in range(3))


_NO_FACE = "the skeleton has no face"


def _run_checks(d: Drawing, k: int, *, strict: bool,
                fail_fast: bool) -> CharacterizationReport:
    want_len = 5 if k == 2 else 6
    want_chords = 5 if k == 2 else 8
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

    ok = is_k_planar(d, k)
    if add(f"{k}-planar",
           ok,
           f"every edge crossed at most {k} times" if ok
           else f"some edge is crossed more than {k} times"):
        return report()

    skeleton = true_planar_skeleton(d)
    connected = skeleton.is_connected() and skeleton.n == d.n
    if add("skeleton-connected",
           connected,
           f"uncrossed edges span all {d.n} vertices in one piece"
           if connected else
           f"true-planar skeleton has {skeleton.n_components} components"):
        return report()

    lengths = sorted({w.length for w in skeleton.faces()})
    ok = lengths == [want_len]
    if add("face-lengths",
           ok,
           f"all {skeleton.f} skeleton faces have length {want_len}" if ok
           else f"skeleton face lengths are {lengths}, need all {want_len}"):
        return report()

    n_faces = len(skeleton.faces())
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

    if k == 3 and strict:
        ok = n_faces > 0
        detail = ("each face has its 6 short chords and 2 middle chords"
                  if ok else _NO_FACE)
        for idx in range(n_faces):
            pairs = [frozenset(p) for p in chord_positions(d, idx).values()]
            # all 6 short chords and 2 distinct middle ones, nothing else
            if not (len(pairs) == len(set(pairs)) == 8
                    and _SHORT <= set(pairs) <= _SHORT | _MIDDLE):
                ok = False
                detail = f"face {idx} deviates from the hexagon pattern"
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
    """Check every condition of the optimal 2-planar characterization.

    The drawing is optimal 2-planar iff all checks pass: the edge count
    is 5n - 10, the planarization is valid, no edge is crossed more than
    twice, the true-planar skeleton is a connected spanning pentagulation
    and every pentagon contains exactly 5 crossed edges, with no
    homotopic duplicates.
    """
    return _run_checks(d, 2, strict=False, fail_fast=fail_fast)


def check_optimal_3planar(d: Drawing, *, mode: str = "strict",
                          fail_fast: bool = False) -> CharacterizationReport:
    """Check every condition of the optimal 3-planar characterization.

    Args:
        d: the drawing to check.
        mode: "strict" also verifies the positional chord pattern in
            every hexagonal face; "count" only requires 8 crossed edges
            per face.
        fail_fast: stop at the first failing check.
    """
    if mode not in ("strict", "count"):
        raise ValueError(f"mode must be 'strict' or 'count', got {mode!r}")
    return _run_checks(d, 3, strict=(mode == "strict"), fail_fast=fail_fast)
