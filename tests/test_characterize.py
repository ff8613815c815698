"""Tests for the characterization checker and density accounting.

The checker is exercised three ways: generated drawings must pass every
check, drawings checked against the wrong class must fail the right
checks, and damaged drawings must be pinned to the first failure when
fail_fast is set.
"""

from dataclasses import FrozenInstanceError, fields
from fractions import Fraction

import pytest

from optiplanar import (
    Drawing,
    PlaneMultigraph,
    assign_crossed_edges_to_faces,
    check_optimal_2planar,
    check_optimal_3planar,
    chord_positions,
    density_audit,
    density_bound,
    dodecahedron,
    generate_optimal,
    is_simple,
    loads_drawing,
    pattern_chords,
    remove_base_edge,
    skeleton_edge_ids,
    theta_hexangulation,
    theta_pentagulation,
)
from optiplanar.characterize import RULES

CHECKS_2 = ["density", "valid-drawing", "2-planar", "skeleton-connected",
            "face-lengths", "chords-per-face", "no-homotopic-duplicates"]
CHECKS_3_STRICT = ["density", "valid-drawing", "3-planar",
                   "skeleton-connected", "face-lengths", "chords-per-face",
                   "chord-pattern", "no-homotopic-duplicates"]


def names(report):
    return [c.name for c in report.checks]


def failed(report):
    return [c.name for c in report.failures]


def plus_sign():
    # two edges crossing once; no uncrossed edge anywhere
    rot = {0: [0], 1: [4], 2: [3], 3: [7], 4: [1, 5, 2, 6]}
    twin = {0: 1, 2: 3, 4: 5, 6: 7}
    plane = PlaneMultigraph(rot, twin)
    return Drawing(plane, (4,), {0: (0, 2), 1: (1, 3)},
                   {0: (0, 2), 1: (4, 6)})


def test_generated_2planar_drawings_pass_all_checks():
    for skeleton in (theta_pentagulation(2), theta_pentagulation(6),
                     dodecahedron()):
        report = check_optimal_2planar(generate_optimal(2, skeleton))
        assert report.optimal
        assert report.failures == ()
        assert names(report) == CHECKS_2
        assert report.lines()[-1] == "verdict: optimal 2-planar"


def test_generated_3planar_drawings_pass_all_checks():
    for p in (1, 2, 4):
        d = generate_optimal(3, theta_hexangulation(p))
        strict = check_optimal_3planar(d)
        assert strict.optimal
        assert names(strict) == CHECKS_3_STRICT
        counted = check_optimal_3planar(d, mode="count")
        assert counted.optimal
        assert "chord-pattern" not in names(counted)


def test_mode_must_be_strict_or_count():
    d = generate_optimal(3, theta_hexangulation(1))
    with pytest.raises(ValueError):
        check_optimal_3planar(d, mode="loose")


def test_pentagonal_drawing_fails_the_hexagon_pattern():
    # a 2-planar drawing checked against k = 3 exercises every failing
    # branch of the positional pattern check
    d = generate_optimal(2, theta_pentagulation(2))
    strict = check_optimal_3planar(d)
    assert not strict.optimal
    assert "chord-pattern" in failed(strict)
    assert "chords-per-face" in failed(strict)
    counted = check_optimal_3planar(d, mode="count")
    assert not counted.optimal
    assert "chord-pattern" not in names(counted)


def test_wrong_class_fails_the_expected_checks():
    d3 = generate_optimal(3, theta_hexangulation(2))
    report = check_optimal_2planar(d3)
    assert not report.optimal
    bad = failed(report)
    for name in ("density", "2-planar", "face-lengths", "chords-per-face"):
        assert name in bad
    assert "skeleton-connected" not in bad

    d2 = generate_optimal(2, theta_pentagulation(2))
    assert "density" in failed(check_optimal_3planar(d2))


def test_fail_fast_stops_at_the_first_failure():
    d = generate_optimal(2, dodecahedron())
    chord = min(e for e in d.base_edges if e not in skeleton_edge_ids(d))
    report = check_optimal_2planar(remove_base_edge(d, chord),
                                   fail_fast=True)
    assert not report.optimal
    assert names(report) == ["density"]


def test_removed_skeleton_edge_breaks_face_structure():
    d = generate_optimal(2, theta_pentagulation(4))
    sk_edge = min(skeleton_edge_ids(d))
    report = check_optimal_2planar(remove_base_edge(d, sk_edge))
    assert not report.optimal
    assert "density" in failed(report)
    assert "face-lengths" in failed(report)


def test_stray_edges_are_reported_not_assigned():
    d = plus_sign()
    assert assign_crossed_edges_to_faces(d) == {-1: (0, 1)}
    report = check_optimal_2planar(d)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["chords-per-face"].passed
    assert "not inside a single face" in by_name["chords-per-face"].detail


def pentagon_with_pendant():
    # a 5-cycle with chord 1-3 inside it; vertex 5 sits in the triangle
    # 1, 2, 3 and its edge to vertex 0 crosses the chord at vertex 6, so
    # the skeleton is the 5-cycle plus the isolated vertex 5
    rot = {0: [9, 17, 0], 1: [1, 10, 2], 2: [3, 4], 3: [5, 13, 6],
           4: [8, 7], 5: [14], 6: [11, 16, 12, 15]}
    twin = {2 * i: 2 * i + 1 for i in range(9)}
    return Drawing(PlaneMultigraph(rot, twin), (6,),
                   {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 0),
                    5: (1, 3), 6: (5, 0)},
                   {0: (0,), 1: (2,), 2: (4,), 3: (6,), 4: (8,),
                    5: (10, 12), 6: (14, 16)})


def test_face_lengths_message_counts_face_walks():
    # f counts the isolated vertex as a face; the message counts walks
    d = pentagon_with_pendant()
    by_name = {c.name: c for c in check_optimal_2planar(d).checks}
    assert not by_name["skeleton-connected"].passed
    check = by_name["face-lengths"]
    assert check.passed
    assert check.detail == "all 2 skeleton faces have length 5"


def test_isolated_skeleton_vertices_have_no_face_to_check():
    # the skeleton is four isolated vertices: f counts them, but they
    # have no face walk and so no chord positions
    report = check_optimal_3planar(plus_sign())
    assert names(report) == CHECKS_3_STRICT
    assert not report.optimal
    by_name = {c.name: c for c in report.checks}
    assert "not inside a single face" in by_name["chords-per-face"].detail


def test_assignment_covers_every_chord_once():
    d = generate_optimal(2, dodecahedron())
    assignment = assign_crossed_edges_to_faces(d)
    assert set(assignment) == set(range(12))
    chords = [e for face in assignment.values() for e in face]
    assert len(chords) == 60
    assert set(chords) == set(d.base_edges) - skeleton_edge_ids(d)
    assert all(len(face) == 5 for face in assignment.values())

    d3 = generate_optimal(3, theta_hexangulation(3))
    assignment3 = assign_crossed_edges_to_faces(d3)
    assert set(assignment3) == {0, 1, 2}
    assert all(len(face) == 8 for face in assignment3.values())


def test_chord_positions_on_the_smallest_hexangulation():
    d = generate_optimal(3, theta_hexangulation(1))
    pos = chord_positions(d, 0)
    got = sorted(tuple(sorted(p)) for p in pos.values())
    assert got == [(0, 2), (0, 4), (1, 3), (1, 4),
                   (1, 5), (2, 4), (2, 5), (3, 5)]


SHORTS = [(i, (i + 2) % 6) for i in range(6)]


@pytest.mark.parametrize("pairs, ok", [
    (SHORTS + [(1, 4), (5, 2)], True),
    (SHORTS + [(3, 0), (1, 4)], True),
    (SHORTS + [(1, 4), (4, 1)], False),       # one middle chord twice
    (SHORTS[1:] + [(0, 3), (1, 4), (2, 5)], False),  # a short one missing
    (SHORTS + [(0, 3), (-1, 3)], False),      # one end outside the face
    (SHORTS + [(0, 3), (0, 1)], False),       # neither short nor middle
    (SHORTS + [(0, 3), (1, 4), (2, 5)], False),  # all three middles
    (SHORTS + [(0, 3), (2, 2)], False),       # a chord from a corner to itself
])
def test_strict_pattern_is_six_shorts_and_two_middles(monkeypatch, pairs, ok):
    from optiplanar import characterize
    monkeypatch.setattr(characterize, "chord_positions",
                        lambda d, idx: dict(enumerate(pairs)))
    d = generate_optimal(3, theta_hexangulation(2))
    check = {c.name: c for c in check_optimal_3planar(d).checks}
    assert check["chord-pattern"].passed is ok


def test_density_bound_values():
    assert density_bound(2, 20) == 90
    assert density_bound(2, 5) == 15
    assert density_bound(3, 6) == 22
    assert density_bound(3, 4) == 11
    with pytest.raises(ValueError):
        density_bound(4, 10)


# the paper's statement, written out: face length, chords per face, edge
# bound at an even and an odd n, and the middle chords of each pattern
PENTAGRAM = ((0, 2), (1, 3), (2, 4), (3, 0), (4, 1))
HEX_SHORTS = ((0, 2), (1, 3), (2, 4), (3, 5), (4, 0), (5, 1))


@pytest.mark.parametrize("k, face_length, chords, bounds, patterns", [
    (2, 5, 5, {6: 20, 7: 25}, [PENTAGRAM]),
    (3, 6, 8, {6: 22, 7: Fraction(55, 2)},
     [HEX_SHORTS + ((1, 4), (2, 5)), HEX_SHORTS + ((0, 3), (2, 5)),
      HEX_SHORTS + ((0, 3), (1, 4))]),
])
def test_rule_rows_match_the_paper(k, face_length, chords, bounds,
                                   patterns):
    row = RULES[k]
    assert row.face_length == face_length
    assert row.crossing_limit == k
    assert [len(p) for p in row.patterns] == [chords] * len(patterns)
    assert list(row.patterns) == patterns
    assert [pattern_chords(k, i) for i in range(len(patterns))] == \
        [list(p) for p in patterns]
    for n, bound in bounds.items():
        assert row.slope * n + row.intercept == bound
        assert density_bound(k, n) == bound
        assert isinstance(density_bound(k, n), Fraction)


def test_the_rule_table_is_frozen():
    assert sorted(RULES) == [2, 3]
    assert len(RULES[2].patterns) == 1 and len(RULES[3].patterns) == 3
    with pytest.raises(TypeError):
        RULES[4] = RULES[3]
    with pytest.raises(FrozenInstanceError):
        RULES[2].face_length = 6


@pytest.mark.parametrize("k", [1, 4])
def test_a_k_without_a_row_is_refused(k):
    for call in (lambda: density_bound(k, 10),
                 lambda: density_audit(generate_optimal(
                     2, theta_pentagulation(2)), k),
                 lambda: density_audit(loads_drawing(EMPTY_DOCUMENT), k),
                 lambda: pattern_chords(k),
                 lambda: generate_optimal(k, theta_pentagulation(2))):
        with pytest.raises(ValueError, match=f"k must be 2 or 3, got {k}"):
            call()


def simple_3planar_bound(n):
    """The edge bound for simple 3-planar graphs, 5.5n - 11.5."""
    return Fraction(11, 2) * n - Fraction(23, 2)


def test_one_density_bound_per_k():
    with pytest.raises(TypeError):
        density_bound(3, 6, simple=True)
    audit = density_audit(generate_optimal(3, theta_hexangulation(1)), 3)
    assert [f.name for f in fields(audit)] == \
        ["k", "n", "m", "bound", "slack", "at_bound"]


EMPTY_DOCUMENT = ('{"format_version":1,"vertices":[],"darts":{},'
                  '"rotations":{},"base_edges":[]}')


@pytest.mark.parametrize("k", [2, 3])
def test_no_density_bound_below_three_vertices(k):
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="no density bound below n = 3"):
            density_bound(k, n)
    d = loads_drawing(EMPTY_DOCUMENT)
    audit = density_audit(d, k)
    assert (audit.n, audit.m) == (0, 0)
    assert not audit.at_bound
    assert audit.bound is None and audit.slack is None
    with pytest.raises(ValueError):
        density_audit(d, 4)
    check = (check_optimal_2planar(d) if k == 2
             else check_optimal_3planar(d)).checks[0]
    assert (check.name, check.passed) == ("density", False)
    assert check.detail == "m = 0, no density bound below n = 3"


def test_a_skeleton_without_faces_fails_the_face_checks():
    # the empty drawing has no chord outside a face and no face either
    by_name = {c.name: c for c in
               check_optimal_3planar(loads_drawing(EMPTY_DOCUMENT)).checks}
    for name in ("chords-per-face", "chord-pattern"):
        assert not by_name[name].passed
        assert by_name[name].detail == "the skeleton has no face"
    # two edges crossing once: stray chords, and no face to hold a pattern
    by_name = {c.name: c for c in check_optimal_3planar(plus_sign()).checks}
    assert "not inside a single face" in by_name["chords-per-face"].detail
    assert not by_name["chord-pattern"].passed
    assert by_name["chord-pattern"].detail == "the skeleton has no face"


def test_density_audit_of_generated_drawings():
    for p in (1, 2, 4):
        d = generate_optimal(3, theta_hexangulation(p))
        audit = density_audit(d, 3)
        assert audit.at_bound
        assert audit.slack == 0
        assert not is_simple(d)
        assert audit.m - simple_3planar_bound(audit.n) == Fraction(1, 2)

    d = generate_optimal(2, dodecahedron())
    audit = density_audit(d, 2)
    assert audit.at_bound
    assert is_simple(d)


def test_report_lines_are_printable():
    report = check_optimal_2planar(generate_optimal(2, theta_pentagulation(2)))
    lines = report.lines()
    assert len(lines) == len(report.checks) + 1
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert str(report).count("\n") == len(report.checks)
