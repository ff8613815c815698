"""Tests for skeleton families and face-pattern insertion.

Counting targets for the generated families (p paths, two poles):

  pentagulation: n = 2 + 3p/2, skeleton m = 5p/2, f = p faces of
  length 5; filled: m = 5n - 10, per-face histogram {2: 5}.

  hexangulation: n = 2p + 2, skeleton m = 3p, f = p faces of length 6;
  filled: 2m = 11n - 22, per-face histogram {2: 2, 3: 6}.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optiplanar import (
    DrawingBuilder,
    PlaneMultigraph,
    crossing_histogram,
    dodecahedron,
    dumps_drawing,
    generate_optimal,
    insert_hexagon_pattern,
    insert_pentagram,
    is_fan_planar,
    is_k_planar,
    is_simple,
    pattern_chords,
    skeleton_edge_ids,
    theta_hexangulation,
    theta_pentagulation,
    validate,
)
from optiplanar import generate
from optiplanar.errors import (
    BadFaceLength,
    FaceNotEmpty,
    HomotopicSkeleton,
    OddPathCount,
)


def test_pentagulation_counts():
    for p in (2, 4, 6, 10):
        g = theta_pentagulation(p)
        assert (g.n, g.m, g.f) == (2 + 3 * p // 2, 5 * p // 2, p)
        assert all(w.length == 5 for w in g.faces())
        assert g.is_connected()


def test_pentagulation_rejects_bad_path_counts():
    with pytest.raises(OddPathCount):
        theta_pentagulation(3)
    with pytest.raises(ValueError):
        theta_pentagulation(0)


def test_hexangulation_counts():
    for p in (1, 2, 3, 7):
        g = theta_hexangulation(p)
        assert (g.n, g.m, g.f) == (2 * p + 2, 3 * p, p)
        assert all(w.length == 6 for w in g.faces())
    with pytest.raises(ValueError):
        theta_hexangulation(0)


def test_dodecahedron_shape():
    g = dodecahedron()
    assert (g.n, g.m, g.f) == (20, 30, 12)
    assert all(g.degree(v) == 3 for v in g.vertices)
    assert all(w.length == 5 for w in g.faces())


def test_pattern_chords():
    assert pattern_chords(2) == [(0, 2), (1, 3), (2, 4), (3, 0), (4, 1)]
    hexagonal = pattern_chords(3)
    assert len(hexagonal) == 8
    shorts = [(i, (i + 2) % 6) for i in range(6)]
    assert [c for c in hexagonal if c in shorts or c[::-1] in shorts] \
        == hexagonal[:6]
    assert hexagonal[6:] == [(1, 4), (2, 5)]
    assert pattern_chords(3, missing_middle=1)[6:] == [(0, 3), (2, 5)]
    assert pattern_chords(3, missing_middle=2)[6:] == [(0, 3), (1, 4)]
    with pytest.raises(ValueError):
        pattern_chords(4)
    with pytest.raises(ValueError):
        pattern_chords(3, missing_middle=3)


def test_filled_pentagulation_is_optimal_density():
    for p in (2, 4, 8):
        d = generate_optimal(2, theta_pentagulation(p))
        n = len(d.real_vertices)
        assert len(d.base_edges) == 5 * n - 10
        assert validate(d) == []
        assert is_k_planar(d, 2)
        assert crossing_histogram(d) == {0: 5 * p // 2, 2: 5 * p}
        assert is_fan_planar(d)
        assert not is_simple(d)


def test_filled_hexangulation_is_optimal_density():
    for p in (1, 2, 5):
        d = generate_optimal(3, theta_hexangulation(p))
        n = len(d.real_vertices)
        assert 2 * len(d.base_edges) == 11 * n - 22
        assert validate(d) == []
        assert is_k_planar(d, 3)
        assert not is_k_planar(d, 2)
        assert crossing_histogram(d) == {0: 3 * p, 2: 2 * p, 3: 6 * p}
        assert not is_simple(d)


def test_filled_dodecahedron_is_simple():
    d = generate_optimal(2, dodecahedron())
    assert len(d.real_vertices) == 20
    assert len(d.base_edges) == 90
    assert len(d.crossing_vertices) == 60
    assert validate(d) == []
    assert is_simple(d)
    assert is_fan_planar(d)
    assert crossing_histogram(d) == {0: 30, 2: 60}


def test_smallest_hexangulation_has_loops():
    # p = 1 is a path on 4 vertices; its single face walks both sides,
    # so two of the short chords close into loops at the inner vertices
    d = generate_optimal(3, theta_hexangulation(1))
    assert len(d.real_vertices) == 4
    assert len(d.base_edges) == 11
    loops = [e for e, (u, v) in d.base_edges.items() if u == v]
    assert len(loops) == 2
    assert validate(d) == []


def test_missing_middle_variants_all_build():
    for mm in (0, 1, 2):
        d = generate_optimal(3, theta_hexangulation(2), missing_middle=mm)
        assert validate(d) == []
        assert crossing_histogram(d) == {0: 6, 2: 4, 3: 12}


def test_metadata_is_carried():
    d = generate_optimal(2, theta_pentagulation(2),
                         metadata={"note": "hello"})
    assert d.metadata == {"note": "hello"}


def test_generate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_optimal(4, theta_pentagulation(2))
    with pytest.raises(BadFaceLength):
        generate_optimal(2, theta_hexangulation(2))
    with pytest.raises(BadFaceLength):
        generate_optimal(3, theta_pentagulation(2))
    disconnected = PlaneMultigraph(
        {0: [0, 2], 1: [3, 1], 2: []}, {0: 1, 2: 3})
    with pytest.raises(ValueError):
        generate_optimal(2, disconnected)


def test_generate_rejects_homotopic_skeletons():
    lens = PlaneMultigraph({0: [0, 2], 1: [3, 1]}, {0: 1, 2: 3})
    with pytest.raises(HomotopicSkeleton):
        generate_optimal(2, lens)
    loop = PlaneMultigraph({0: [0, 1, 2], 1: [3]}, {0: 1, 2: 3})
    with pytest.raises(HomotopicSkeleton):
        generate_optimal(2, loop)


def test_double_fill_is_refused():
    g = theta_pentagulation(2)
    builder = DrawingBuilder(g)
    face = g.faces()[0]
    insert_pentagram(builder, face)
    with pytest.raises(FaceNotEmpty):
        insert_pentagram(builder, face)


def test_pattern_needs_matching_face_length():
    g = theta_hexangulation(2)
    builder = DrawingBuilder(g)
    with pytest.raises(BadFaceLength):
        insert_pentagram(builder, g.faces()[0])
    g5 = theta_pentagulation(2)
    builder5 = DrawingBuilder(g5)
    with pytest.raises(BadFaceLength):
        insert_hexagon_pattern(builder5, g5.faces()[0])


def test_all_three_middles_cannot_coexist():
    # a third middle chord would be crossed more than three times; the
    # crossing limit refuses it before any splicing happens, and before
    # the middle chords' crossing each other is looked at
    from optiplanar.generate import _FacePattern
    shorts = [(i, (i + 2) % 6) for i in range(6)]
    middles = [(0, 3), (1, 4), (2, 5)]
    _FacePattern(6, shorts + middles[1:], limit=3)  # two middles fit
    with pytest.raises(ValueError, match="more than the 3 allowed"):
        _FacePattern(6, shorts + middles, limit=3)


def test_crossers_that_cross_each_other_are_refused():
    # (1, 4) and (2, 5) both cross (0, 3) and each other, so the cyclic
    # order of the positions does not fix their order along (0, 3)
    from optiplanar.generate import _FacePattern
    with pytest.raises(ValueError, match=r"chord \(0, 3\) is crossed by "
                                         r"chords that cross each other"):
        _FacePattern(6, [(0, 3), (1, 4), (2, 5)], limit=3)


def test_generation_is_deterministic():
    a = dumps_drawing(generate_optimal(2, theta_pentagulation(4)))
    b = dumps_drawing(generate_optimal(2, theta_pentagulation(4)))
    assert a == b
    c = dumps_drawing(generate_optimal(3, theta_hexangulation(3)))
    e = dumps_drawing(generate_optimal(3, theta_hexangulation(3)))
    assert c == e


# sha256 prefixes of the canonical JSON: a change to how faces are filled
# must keep producing exactly these bytes
PINNED_DIGESTS = {
    "theta2-p4": (2, lambda: theta_pentagulation(4), 0, "09c651819bd4a8b7"),
    "theta3-p3-mm0": (3, lambda: theta_hexangulation(3), 0,
                      "4832b3e238bd959a"),
    "theta3-p3-mm1": (3, lambda: theta_hexangulation(3), 1,
                      "b0b756b656f02335"),
    "theta3-p3-mm2": (3, lambda: theta_hexangulation(3), 2,
                      "fad82cea21cecc60"),
    "dodecahedron": (2, dodecahedron, 0, "11c32a9a5b981a73"),
}


@pytest.mark.parametrize("k, skeleton, missing_middle, digest",
                         PINNED_DIGESTS.values(), ids=PINNED_DIGESTS.keys())
def test_generated_bytes_are_pinned(k, skeleton, missing_middle, digest):
    text = dumps_drawing(generate_optimal(k, skeleton(),
                                          missing_middle=missing_middle))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_each_chord_pattern_is_modelled_once(monkeypatch):
    built = []

    class Counting(generate._FacePattern):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    generate._pattern.cache_clear()
    monkeypatch.setattr(generate, "_FacePattern", Counting)
    try:
        generate_optimal(3, theta_hexangulation(16), missing_middle=1)
        assert len(built) == 1
        key = (6, tuple(pattern_chords(3, 1)), 3)
        assert generate._pattern(*key) is generate._pattern(*key)
    finally:
        # later tests must not share the counting templates
        generate._pattern.cache_clear()


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=1, max_value=12))
def test_pentagulation_family_properties(half_p):
    p = 2 * half_p
    d = generate_optimal(2, theta_pentagulation(p))
    assert validate(d) == []
    n = len(d.real_vertices)
    assert len(d.base_edges) == 5 * n - 10
    sk = skeleton_edge_ids(d)
    assert len(sk) == 5 * p // 2


@settings(deadline=None, max_examples=12)
@given(st.integers(min_value=1, max_value=12))
def test_hexangulation_family_properties(p):
    d = generate_optimal(3, theta_hexangulation(p))
    assert validate(d) == []
    n = len(d.real_vertices)
    assert 2 * len(d.base_edges) == 11 * n - 22
    assert len(skeleton_edge_ids(d)) == 3 * p
