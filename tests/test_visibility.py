"""Tests for st-numbering, bar visibility, and the bar 1-visibility
extension of optimal 2-planar drawings.

verify_bar1 rechecks layouts from coordinates alone, so it doubles as
the oracle here: every constructed layout must survive it, and every
hand-tampered layout must be caught by it.
"""

import hashlib

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
    theta_hexangulation,
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


def three_parallel_edges():
    return PlaneMultigraph({0: [0, 2, 4], 1: [5, 3, 1]},
                           {0: 1, 2: 3, 4: 5})


def test_bar_visibility_handles_parallel_edges():
    rep = bar_visibility(three_parallel_edges())
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


# sha256 of repr(bar_visibility(g)): poles, st-numbers, face order,
# columns and the order of bars and segments are all fixed.
LAYOUT_SHA256 = {
    "C3": "9206fa50e7ae1c13188a666bd7e6c1339df6d619b356cd549468fff6a83b3ece",
    "C4": "df52317df8d03e74cb1615c5c75b0e5b88aed146bcdee52edda4cb68169ee8f3",
    "C5": "23c4d31df5386b72335c1ef2a62c69212488fd17da616de3b28fe49aad103503",
    "C6": "7d8e377b93164710d91664277a6a98934b37f24d0329d0abd29e7f481de1d31b",
    "C7": "615eac03c6be650f10e64e6f700aa06f2671d2554618a32a18f7a04d51db3a46",
    "C8": "52eb3ee2f2923bdea134ce27e5e9e990fc4e0ff9b17833e30c5e509255124405",
    "C9": "46121dead7c0353efda25f5276da16d6a756b1cb674d08c303e27223d4af7443",
    "C10": "ab120de71e1e5ac70bb94809a7cf61ab24e21d540db39b53151efde23c9168a5",
    "C11": "b8b1e4810f204948855ae4d22fce13d39726556be51adfca800819afe7402db5",
    "C12": "a260c0b7ba659902b551d6bfa3729686a616b3dd902600b89d3b2eb9e550848b",
    "C13": "41f92cc54355e01bb9b5d153b43c29ac2716627ead4cf8792761624a3921313e",
    "C14": "b1ba48f7aa62f86ab8cf3473cf54da721dc0658d5b0bd233691d8a899f67ba19",
    "theta2-2": "0f059e607c971726c432124219d052434b932eda4356fe5366a6eb058c787310",
    "theta2-4": "6fefa46c7ad6962aa5bb332ffdd555ce8400e063c23d22878ea78c40d941b369",
    "theta2-6": "1678f5448c757e245e31154540182fb681244b00d227862bcf6e4b679df6fab0",
    "theta2-8": "5beb0e9d7056b629b09614e388391f9a16bc9c9dfde9e619af91b103de63d728",
    "theta2-10": "dd201bb458180880c97375b7450823809ae650bc6e91e4c8cb097eff5e3e7ba4",
    "theta2-12": "494fa3fb7fdeb18c8df9d582f5280d521e42439aaffe400108c140a433794a0e",
    "theta2-14": "829973a822b90fd1957cbb1ee31382946daebbf56c192253f48d5641989465a8",
    "theta2-16": "a95d77c57b1551d66a27debd6cab9ba8f7640822d985c07d7f340321b8bffd4e",
    "theta2-18": "cda6a6012f9c4c06178aac2212daea717041046a8e61df5bc15d71b34d276274",
    "theta2-20": "2a13ad339f36c8e60e0a0a069d24af4ef1dd61b9d50342039057103411095f42",
    "theta3-2": "270833645b3efe9d2f0ecec47b72cd12100ca5eee8444c4f30e05c9f2bac69bb",
    "theta3-3": "7366c34fd7efdc54989f32caae78ef973dc8589b2014eccc1ef681c527560907",
    "theta3-4": "7288ef61f348bdb87a1e2bbace41fa853f162eb58548532f18b8746467344db4",
    "theta3-5": "764c99a97ec7ebbac53b2cef2df99296f9ff9ea6ca5fafeb52fb0f73e0d3cef9",
    "theta3-6": "b521ee9526c9925987b2513a2235fb9074909451ff696ade88fff90f78400953",
    "theta3-7": "d863c44abc68aead7e069e693b507c903aeb0f68665997cec78e6a95b50de1d8",
    "theta3-8": "c35f40aaf6242e3cee31b799413efbd89de54efb128180a369578b99906d6c7a",
    "theta3-9": "88b1dce4f32f4d222b8c4bda46b71642c6baee96a1a15fe47b7df626f1faac62",
    "theta3-10": "9bc45e27378ecb1a406810ec6f74d45d886197288a16dd9a0439766837f77ea1",
    "theta3-11": "a0cb0923e259bf2083fd5c120bafedcead2d98a3fd4bd6abac4c7a0edd7a33e8",
    "dodecahedron": "e46a10e7e646e20edb5cde76e54d0fa3264c22a08999ebbc1185f76ebe945308",
    "parallel": "f089e638021e6c1605356d73750926f4647b4b8a7c29e3465bc122566562cdc3",
}
PINNED = {
    **{f"C{n}": (cycle, n) for n in range(3, 15)},
    **{f"theta2-{p}": (theta_pentagulation, p) for p in range(2, 21, 2)},
    **{f"theta3-{p}": (theta_hexangulation, p) for p in range(2, 12)},
    "dodecahedron": (dodecahedron,),
    "parallel": (three_parallel_edges,),
}


@pytest.mark.parametrize("name", LAYOUT_SHA256)
def test_planar_layouts_are_pinned(name):
    build, *args = PINNED[name]
    rep = bar_visibility(build(*args))
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == \
        LAYOUT_SHA256[name]


NOT_TWO_CONNECTED = ("vertex 2 cannot be numbered between two neighbours; "
                     "the graph is not 2-connected")


@pytest.mark.parametrize("rotations, twin, error, message", [
    ({0: [0, 6, 7, 5], 1: [2, 1], 2: [4, 3]}, {0: 1, 2: 3, 4: 5, 6: 7},
     ValueError, "bar visibility needs a loopless graph"),
    ({0: [0, 1]}, {0: 1}, ValueError, "the graph has no non-loop edge"),
    ({0: []}, {}, ValueError, "the graph has no non-loop edge"),
    ({0: [0], 1: [1, 2], 2: [3]}, {0: 1, 2: 3},
     NotBiconnected, NOT_TWO_CONNECTED),
    # the st-numbering fails before the loop is looked at
    ({0: [0, 4, 5], 1: [1, 2], 2: [3]}, {0: 1, 2: 3, 4: 5},
     NotBiconnected, NOT_TWO_CONNECTED),
], ids=["loop", "loops-only", "no-edge", "path", "path-and-loop"])
def test_layout_errors_are_pinned(rotations, twin, error, message):
    with pytest.raises(error) as info:
        bar_visibility(PlaneMultigraph(rotations, twin))
    assert type(info.value) is error and str(info.value) == message


def test_verify_catches_empty_extent_and_overlap():
    bad = BarVisibilityRep(
        bars=(Bar(0, 1, 2, 1), Bar(1, 2, 0, 4), Bar(2, 2, 3, 5)),
        segments=())
    problems = verify_bar1(bad)
    assert any("empty extent" in p for p in problems)
    assert any("overlap in row 2" in p for p in problems)


def test_verify_catches_overlap_hidden_by_a_later_bar():
    # bar 1 lies right of both; the overlap of 0 and 2 must still show
    bad = BarVisibilityRep(
        bars=(Bar(0, 1, 0, 10), Bar(1, 1, 20, 30), Bar(2, 1, 5, 6)),
        segments=())
    assert verify_bar1(bad) == ["bars 0 and 2 overlap in row 1"]


def test_verify_catches_a_vertex_with_two_bars():
    bad = BarVisibilityRep(bars=(Bar(0, 1, 0, 0), Bar(0, 2, 0, 0)),
                           segments=())
    assert verify_bar1(bad) == ["vertex 0 has two bars"]


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
