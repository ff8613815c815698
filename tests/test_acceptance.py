"""Acceptance suite: one test per stated criterion.

Each test prints a single PASS/FAIL line (visible with -rA or -s) and
asserts the criterion exactly as stated, including runtime budgets.
The brute-force oracles in this file deliberately avoid the library's
own crossing bookkeeping: criterion 9 compares the two.
"""

import time
from fractions import Fraction

import pytest

from optiplanar import (
    check_optimal_2planar,
    check_optimal_3planar,
    chord_positions,
    crossing_graph,
    crossing_histogram,
    density_audit,
    dodecahedron,
    double_crossing_pairs,
    empty_true_planar_triangle,
    extend_to_bar1,
    generate_optimal,
    homotopic_duplicates,
    is_fan_planar,
    is_quasi_planar,
    is_simple,
    load_drawing,
    odd_true_planar_cycle,
    remove_base_edge,
    save_drawing,
    theta_hexangulation,
    theta_pentagulation,
    true_planar_skeleton,
    verify_bar1,
)
from optiplanar.cli import main

PENTA_RANGE = range(2, 33, 2)
HEXA_RANGE = range(1, 25)


def criterion(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus():
    """Every generated drawing: (class, p or None, drawing)."""
    out = [(2, p, generate_optimal(2, theta_pentagulation(p)))
           for p in PENTA_RANGE]
    out += [(3, p, generate_optimal(3, theta_hexangulation(p)))
            for p in HEXA_RANGE]
    out.append((2, None, generate_optimal(2, dodecahedron())))
    return out


def test_c1_2planar_density_round_trips(tmp_path):
    start = time.perf_counter()
    for p in PENTA_RANGE:
        path = tmp_path / f"penta{p}.json"
        assert main(["generate", "--class", "2opt",
                     "--skeleton", f"theta:{p}", "-o", str(path)]) == 0
        d = load_drawing(path)
        n = d.n
        assert n == 2 + 3 * p // 2
        assert d.m == 5 * n - 10
        assert main(["verify", "--class", "2opt", str(path)]) == 0
    elapsed = time.perf_counter() - start
    criterion("criterion-1", elapsed < 5.0,
              f"16 generate/verify round trips, m = 5n-10 exact, "
              f"{elapsed:.2f}s < 5s")


def test_c2_3planar_density_round_trips(tmp_path):
    start = time.perf_counter()
    for p in HEXA_RANGE:
        path = tmp_path / f"hexa{p}.json"
        assert main(["generate", "--class", "3opt",
                     "--skeleton", f"theta:{p}", "-o", str(path)]) == 0
        d = load_drawing(path)
        n = d.n
        assert n == 2 * p + 2
        assert Fraction(d.m) == Fraction(11, 2) * n - 11
        assert main(["verify", "--class", "3opt", str(path)]) == 0
    elapsed = time.perf_counter() - start
    criterion("criterion-2", elapsed < 5.0,
              f"24 generate/verify round trips, m = 5.5n-11 exact, "
              f"{elapsed:.2f}s < 5s")


def test_c3_dodecahedron_flagship():
    d = generate_optimal(2, dodecahedron())
    report = check_optimal_2planar(d)
    ok = (d.n == 20 and d.m == 90 and is_simple(d) and report.optimal
          and report.lines()[-1] == "verdict: optimal 2-planar"
          and crossing_histogram(d) == {0: 30, 2: 60})
    criterion("criterion-3", ok,
              f"n={d.n} m={d.m} simple={is_simple(d)} "
              f"histogram={crossing_histogram(d)}")


def test_c4_every_single_edge_deletion_is_rejected(corpus, tmp_path):
    total = 0
    rejected = 0
    sampled = []
    for k, p, d in corpus:
        if p is None:
            continue  # criterion covers the drawings of (1)-(2)
        for e in sorted(d.base_edges):
            mutant = remove_base_edge(d, e)
            report = (check_optimal_2planar(mutant, fail_fast=True)
                      if k == 2 else
                      check_optimal_3planar(mutant, fail_fast=True))
            total += 1
            rejected += (not report.optimal)
            if not sampled or (sampled[-1][0] != k and len(sampled) < 2):
                sampled.append((k, mutant))
    # exit-code contract spot check through the CLI
    for k, mutant in sampled:
        path = tmp_path / f"mutant{k}.json"
        save_drawing(mutant, path)
        assert main(["verify", "--class", f"{k}opt", str(path)]) == 1
    criterion("criterion-4", total == rejected == 5340,
              f"{rejected}/{total} single-edge deletions rejected")


def test_c5_property_suite(corpus):
    for k, p, d in corpus:
        assert is_quasi_planar(d), (k, p)
        assert double_crossing_pairs(d) == (), (k, p)
        skeleton = true_planar_skeleton(d)
        assert skeleton.is_connected() and skeleton.n == d.n, (k, p)
        if k == 3:
            assert odd_true_planar_cycle(d) is None, (k, p)
            assert d.n % 2 == 0, (k, p)
        else:
            assert empty_true_planar_triangle(d) is None, (k, p)
    criterion("criterion-5", True,
              f"quasi-planar, no double crossings, spanning connected "
              f"skeleton on all {len(corpus)} drawings; bipartite "
              f"even-order skeletons for 3opt; no empty triangles for 2opt")


def test_c6_optimal_3planar_is_never_simple(corpus):
    checked = 0
    for k, p, d in corpus:
        if k != 3:
            continue
        assert not is_simple(d), p
        pairs_or_loops = [e for e, (u, v) in d.base_edges.items() if u == v]
        seen = set()
        for e, (u, v) in sorted(d.base_edges.items()):
            key = (u, v) if u < v else (v, u)
            if key in seen:
                pairs_or_loops.append(e)
            seen.add(key)
        assert pairs_or_loops, p
        assert homotopic_duplicates(d) == [], p
        audit = density_audit(d, 3)
        # simple 3-planar graphs have at most 5.5n - 11.5 edges
        assert Fraction(11, 2) * d.n - Fraction(23, 2) - audit.m \
            == Fraction(-1, 2), p
        checked += 1
    criterion("criterion-6", checked == len(HEXA_RANGE),
              f"{checked} 3opt drawings: non-simple, duplicates all "
              f"essential, simple bound 5.5n-11.5 missed by exactly 1/2")


def test_c7_optimal_2planar_is_fan_planar(corpus):
    checked = 0
    for k, p, d in corpus:
        if k != 2:
            continue
        assert is_fan_planar(d), p
        checked += 1
    criterion("criterion-7", checked == len(PENTA_RANGE) + 1,
              f"{checked} 2opt drawings fan-planar")


def test_c8_bar_1_visibility_extension():
    d = generate_optimal(2, dodecahedron())
    start = time.perf_counter()
    rep = extend_to_bar1(d)
    problems = verify_bar1(rep, 1)
    elapsed = time.perf_counter() - start
    ok = (len(rep.segments) == 90 and problems == []
          and rep.max_crossed <= 1 and elapsed < 1.0)
    criterion("criterion-8", ok,
              f"90 visibilities, {len(problems)} violations, "
              f"max crossed {rep.max_crossed}, {elapsed:.3f}s < 1s")


def brute_force_crossing_multiplicities(d):
    interiors = {e: {d.plane.head(g) for g in path[:-1]}
                 for e, path in d.edge_paths.items()}
    ids = sorted(d.base_edges)
    mult = {}
    for i, e in enumerate(ids):
        for f in ids[i + 1:]:
            shared = interiors[e] & interiors[f]
            if shared:
                mult[frozenset((e, f))] = len(shared)
    return mult


def interleaving_count(pos, e):
    a, b = sorted(pos[e])
    inside = set(range(a + 1, b))
    count = 0
    for f, (c, x) in pos.items():
        if f == e or {a, b} & {c, x}:
            continue
        if (c in inside) != (x in inside):
            count += 1
    return count


def test_c9_oracle_equivalence(corpus):
    checked = 0
    for k, p, d in corpus:
        if d.m > 200:
            continue
        assert crossing_graph(d).multiplicity \
            == brute_force_crossing_multiplicities(d), (k, p)
        skeleton = true_planar_skeleton(d)
        for idx in range(skeleton.f):
            pos = chord_positions(d, idx)
            for e in pos:
                actual = len(d.edge_paths[e]) - 1
                assert actual == interleaving_count(pos, e), (k, p, idx, e)
        checked += 1
    criterion("criterion-9", checked >= 30,
              f"crossing graph and interleaving oracles agree on "
              f"{checked} drawings with at most 200 edges")
