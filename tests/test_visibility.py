"""Tests for st-numbering, bar visibility, and the bar 1-visibility
extension of optimal 2-planar drawings.

verify_bar1 rechecks layouts from coordinates alone, so it doubles as
the oracle here: every constructed layout must survive it, and every
hand-tampered layout must be caught by it.
"""

import pytest

from optiplanar import (
    Bar,
    BarVisibilityRep,
    PlaneMultigraph,
    VisibilitySegment,
    bar_visibility,
    dodecahedron,
    extend_to_bar1,
    generate_optimal,
    remove_base_edge,
    skeleton_edge_ids,
    st_number,
    theta_pentagulation,
    verify_bar1,
)
from optiplanar.errors import NotBiconnected, NotOptimal2Planar, NotSimple


def cycle(n):
    rot = {i: [2 * i, 2 * ((i - 1) % n) + 1] for i in range(n)}
    twin = {2 * i: 2 * i + 1 for i in range(n)}
    return PlaneMultigraph(rot, twin)


def test_st_numbering_of_c5():
    g = cycle(5)
    assert st_number(g, 0, 1) == {0: 1, 4: 2, 3: 3, 2: 4, 1: 5}


def test_st_numbering_is_bipolar():
    for g, s, t in ((cycle(7), 2, 3), (dodecahedron(), 0, 1),
                    (theta_pentagulation(4), 0, 2)):
        num = st_number(g, s, t)
        assert sorted(num.values()) == list(range(1, g.n + 1))
        assert num[s] == 1 and num[t] == g.n
        for v in g.vertices:
            around = [num[g.head(d)] for d in g.rotation(v)]
            if v != s:
                assert min(around) < num[v]
            if v != t:
                assert max(around) > num[v]


def test_st_numbering_input_validation():
    g = cycle(5)
    with pytest.raises(ValueError):
        st_number(g, 0, 2)  # not adjacent
    with pytest.raises(ValueError):
        st_number(g, 0, 0)
    path = PlaneMultigraph({0: [0], 1: [1, 2], 2: [3]}, {0: 1, 2: 3})
    with pytest.raises(NotBiconnected):
        st_number(path, 0, 1)


def test_bar_visibility_of_c5():
    rep = bar_visibility(cycle(5))
    assert verify_bar1(rep, 0) == []
    assert rep.bars == (
        Bar(vertex=0, y=1, x0=0, x1=2),
        Bar(vertex=4, y=2, x0=2, x1=2),
        Bar(vertex=3, y=3, x0=2, x1=2),
        Bar(vertex=2, y=4, x0=2, x1=2),
        Bar(vertex=1, y=5, x0=0, x1=2),
    )
    assert rep.segments == (
        VisibilitySegment(u=0, v=1, x=0, y0=1, y1=5),
        VisibilitySegment(u=2, v=1, x=2, y0=4, y1=5),
        VisibilitySegment(u=3, v=2, x=2, y0=3, y1=4),
        VisibilitySegment(u=4, v=3, x=2, y0=2, y1=3),
        VisibilitySegment(u=0, v=4, x=2, y0=1, y1=2),
    )
    assert rep.max_crossed == 0
    assert rep.bar_of(3).y == 3
    with pytest.raises(KeyError):
        rep.bar_of(99)


def test_bar_visibility_handles_parallel_edges():
    g = PlaneMultigraph({0: [0, 2, 4], 1: [5, 3, 1]},
                        {0: 1, 2: 3, 4: 5})
    rep = bar_visibility(g)
    assert verify_bar1(rep, 0) == []
    assert len(rep.segments) == 3
    xs = sorted(seg.x for seg in rep.segments)
    assert len(set(xs)) == 3


def test_bar_visibility_of_larger_skeletons():
    for g in (dodecahedron(), theta_pentagulation(6), cycle(12)):
        rep = bar_visibility(g)
        assert verify_bar1(rep, 0) == []
        assert len(rep.bars) == g.n
        assert len(rep.segments) == g.m


def test_verify_catches_empty_extent_and_overlap():
    bad = BarVisibilityRep(
        bars=(Bar(0, 1, 2, 1), Bar(1, 2, 0, 4), Bar(2, 2, 3, 5)),
        segments=())
    problems = verify_bar1(bad)
    assert any("empty extent" in p for p in problems)
    assert any("overlap in row 2" in p for p in problems)


def test_verify_catches_detached_segment():
    rep = bar_visibility(cycle(5))
    moved = VisibilitySegment(u=0, v=1, x=5, y0=1, y1=5)
    bad = BarVisibilityRep(rep.bars, rep.segments[1:] + (moved,))
    assert any("misses the bar of 0" in p for p in verify_bar1(bad))


def test_verify_catches_wrong_crossing_record():
    rep = bar_visibility(cycle(5))
    # a segment jumping vertex 4's bar without declaring it
    lie = VisibilitySegment(u=0, v=3, x=2, y0=1, y1=3)
    bad = BarVisibilityRep(rep.bars, (lie,))
    problems = verify_bar1(bad)
    assert any("crosses bars of [4] but records []" in p for p in problems)
    honest = VisibilitySegment(u=0, v=3, x=2, y0=1, y1=3, crossed=(4,))
    assert verify_bar1(BarVisibilityRep(rep.bars, (honest,)), 1) == []
    assert any("more than the 0 allowed" in p for p in verify_bar1(
        BarVisibilityRep(rep.bars, (honest,)), 0))


def test_verify_catches_column_conflicts():
    bars = (Bar(0, 1, 0, 0), Bar(1, 3, 0, 0), Bar(2, 2, 1, 1),
            Bar(3, 4, 0, 1))
    overlapping = (VisibilitySegment(0, 1, 0, 1, 3),
                   VisibilitySegment(0, 3, 0, 1, 4, crossed=(1,)))
    assert any("overlap in column 0" in p
               for p in verify_bar1(BarVisibilityRep(bars, overlapping)))
    touching = (VisibilitySegment(0, 1, 0, 1, 3),
                VisibilitySegment(2, 3, 1, 2, 4))
    rep = BarVisibilityRep(bars, touching)
    assert verify_bar1(rep) == []
    bad_touch = (VisibilitySegment(0, 1, 0, 1, 3),
                 VisibilitySegment(2, 3, 0, 3, 4))
    problems = verify_bar1(BarVisibilityRep(bars, bad_touch))
    assert any("touch in column 0" in p for p in problems)


def test_extend_to_bar1_on_the_dodecahedron():
    d = generate_optimal(2, dodecahedron())
    rep = extend_to_bar1(d)
    assert len(rep.bars) == 20
    assert len(rep.segments) == 90
    assert verify_bar1(rep, 1) == []
    assert rep.max_crossed == 1
    crossing = [seg for seg in rep.segments if seg.crossed]
    assert len(crossing) == 45


def test_extend_to_bar1_refuses_multigraphs():
    d = generate_optimal(2, theta_pentagulation(2))
    with pytest.raises(NotSimple):
        extend_to_bar1(d)


def test_extend_to_bar1_refuses_non_optimal_input():
    d = generate_optimal(2, dodecahedron())
    chord = min(e for e in d.base_edges if e not in skeleton_edge_ids(d))
    with pytest.raises(NotOptimal2Planar):
        extend_to_bar1(remove_base_edge(d, chord))
