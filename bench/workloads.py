"""The three workloads: their seeded corpora, operations and oracles.

Every workload is a closed loop with one client: an operation starts when
the previous one returns.  Operations go through the CLI entry point
``optiplanar.cli.main`` (in-process, output captured) or through the
public library functions, always looked up on their module at call time
so that the traced run sees them.  Each operation carries an oracle
whose expected answer comes from how its input was built, never from the
verifier; the oracle runs outside the timed interval.

- ``verify`` (read path): ``verify`` and ``analyze`` on stored documents,
  a third of them negatives.  Theta drawings carry one parallel class of
  size p; the split pentagulations keep every class at size 2.
- ``sweep`` (mutation path): delete one edge, then check with
  ``fail_fast``.  The check stops at the density test, so the time goes
  to rebuilding the planarization.
- ``build`` (write path): ``generate``, then ``export`` to SVG and DOT,
  and ``barvis`` for the dodecahedron.

A round is the fixed list of operations the loop repeats.  Theta and
dodecahedron inputs cost the same whatever the seed, while the seed picks
the split shapes, the deleted edges, some missing middle chords and, in
``verify`` and ``sweep``, the order.  Each round is composed so that its
median and its tail percentile fall inside a group of theta operations,
which keeps ``op_p50_s`` and ``op_tail_s`` from depending on the seed's
draw.
"""

from __future__ import annotations

import io
import random
import re
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from optiplanar import characterize, cli, docio, drawing, generate, visibility

from corpus import (
    DocFacts,
    density_bound,
    split_hexangulation,
    split_pentagulation,
)

CLASS = {"theta2": 2, "theta3": 3, "split2": 2, "split3": 3,
         "dodecahedron": 2}


@dataclass
class Op:
    """One operation: run() is timed, check(result) returns a problem or
    None.  ``facts`` describes the document the operation works on."""
    kind: str
    facts: DocFacts
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    # latency percentile reported as op_tail_s; the loop runs until at
    # least 10 operations lie beyond it
    tail_pct: int
    # builds the corpus (timed as setup_s); deterministic in the seed
    setup: Callable[[int, Path, bool], object]
    # turns a corpus into the round of operations the loop repeats:
    # (corpus, seed, workdir) -> operations
    plan: Callable[[object, int, Path], list[Op]]


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _size(family: str, size: int, smoke: bool) -> int:
    """The path count (theta) or vertex count (split) actually built;
    smoke runs shrink every input by about 8 while keeping it valid."""
    if not smoke:
        return size
    if family == "theta2":
        return max(2, size // 16 * 2)
    if family == "theta3":
        return max(1, size // 8)
    if family == "split2":
        return 20 + 3 * ((size - 20) // 24)
    if family == "split3":
        return 8 + 2 * ((size - 8) // 16)
    return size


def _skeleton(family: str, size: int, rng: random.Random):
    if family == "theta2":
        return generate.theta_pentagulation(size)
    if family == "theta3":
        return generate.theta_hexangulation(size)
    if family == "split2":
        return split_pentagulation(size, rng)
    if family == "split3":
        return split_hexangulation(size, rng)
    return generate.dodecahedron()


@dataclass
class Doc:
    """A stored document with the n and m its construction guarantees."""
    key: str
    family: str
    k: int
    n: int
    m: int
    path: Path
    drawing: object
    text: str

    def facts(self) -> DocFacts:
        return DocFacts.of(self.key, self.family, self.k, self.drawing,
                           self.text)


def _store(key: str, family: str, k: int, n: int, m: int, d,
           workdir: Path) -> Doc:
    text = docio.dumps_drawing(d)
    path = workdir / f"{key}.json"
    path.write_text(text, encoding="utf-8")
    return Doc(key, family, k, n, m, path, d, text)


def _optimal_docs(keys, seed: int, workdir: Path,
                  smoke: bool) -> dict[str, Doc]:
    """Build and store the optimal documents named "<family>-<size>".

    Theta hexangulations keep their pole-to-pole middle chords, one
    parallel class of size p; split hexangulations draw the missing
    middle chord from the seed.
    """
    docs: dict[str, Doc] = {}
    for key in keys:
        family, size = key.rsplit("-", 1)
        rng = random.Random(f"{seed}:{key}")
        k = CLASS[family]
        skeleton = _skeleton(family, _size(family, int(size), smoke), rng)
        mm = 2 if family == "theta3" else rng.randrange(3) if k == 3 else 0
        d = generate.generate_optimal(k, skeleton, missing_middle=mm)
        docs[key] = _store(key, family, k, skeleton.n,
                           int(density_bound(k, skeleton.n)), d, workdir)
    return docs


# --- verify ------------------------------------------------------------------

VERIFY_DOCS = (
    "theta2-8", "theta2-16", "theta2-32", "theta2-64",
    "theta3-8", "theta3-16", "theta3-32",
    "split2-50", "split2-80", "split2-110",
    "split3-48", "split3-64", "split3-88",
    "dodecahedron-20",
)
# documents with a stored negative: a seeded single-edge deletion each
DELETIONS = ("theta2-16", "theta3-8", "theta3-16", "split2-80", "split3-48")
# Every stored document is verified against its own class once per round;
# these (document, command, class) operations run as well.  theta2-16 is
# verified twice more, so that the round's median falls among identical
# operations rather than between two of different cost.
VERIFY_EXTRA = (
    ("theta2-16", "verify", 2), ("theta2-16", "verify", 2),
    ("theta2-8", "verify", 3), ("theta2-16", "verify", 3),
    ("split2-50", "verify", 3), ("theta3-8", "verify", 2),
    ("split3-48", "verify", 2),
    ("dodecahedron-20", "analyze", 0), ("theta2-8", "analyze", 0),
    ("theta2-16", "analyze", 0), ("theta2-32", "analyze", 0),
    ("split2-50", "analyze", 0), ("theta3-8", "analyze", 0),
    ("split3-48", "analyze", 0), ("theta3-8-del", "analyze", 0),
    ("dodecahedron-20", "verify", 3),
)
# 3opt documents checked with --mode count instead of strict
COUNT_MODE = {"theta3-16", "theta3-16-del", "split3-88"}


def verify_setup(seed: int, workdir: Path, smoke: bool) -> dict[str, Doc]:
    docs = _optimal_docs(VERIFY_DOCS, seed, workdir, smoke)
    for key in DELETIONS:
        doc = docs[key]
        rng = random.Random(f"{seed}:{key}-del")
        e = rng.choice(sorted(doc.drawing.base_edges))
        mutant = drawing.remove_base_edge(doc.drawing, e)
        docs[f"{key}-del"] = _store(f"{key}-del", doc.family, doc.k, doc.n,
                                    doc.m - 1, mutant, workdir)
    return docs


def _verify_op(doc: Doc, k: int) -> Op:
    argv = ["verify", "--class", f"{k}opt"]
    if doc.key in COUNT_MODE:
        argv += ["--mode", "count"]
    argv.append(str(doc.path))
    optimal = k == doc.k and not doc.key.endswith("-del")
    verdict = "optimal" if optimal else "NOT optimal"
    want_line = f"{doc.path}: {verdict} {k}-planar (n={doc.n}, m={doc.m})"
    want_code = 0 if optimal else 1

    def check(result) -> str | None:
        code, out = result
        if code != want_code:
            return f"{' '.join(argv)}: exit {code}, expected {want_code}"
        if out.splitlines()[:1] != [want_line]:
            return f"{' '.join(argv)}: verdict line {out.splitlines()[:1]}"
        return None

    kind = "verify" if k == doc.k else "verify-other-class"
    return Op(kind, doc.facts(), lambda: _cli(argv), check)


def _analyze_op(doc: Doc) -> Op:
    argv = ["analyze", str(doc.path)]
    yes = {2: "no", 3: "no"}
    if not doc.key.endswith("-del"):
        yes[doc.k] = "yes"
    want = f"optimal: 2-planar {yes[2]}, 3-planar {yes[3]}"

    def check(result) -> str | None:
        code, out = result
        if code != 0:
            return f"{' '.join(argv)}: exit {code}, expected 0"
        if want not in out.splitlines():
            return f"{' '.join(argv)}: no line {want!r}"
        return None

    return Op("analyze", doc.facts(), lambda: _cli(argv), check)


def verify_plan(docs: dict[str, Doc], seed: int, workdir: Path) -> list[Op]:
    ops = [_verify_op(doc, doc.k) for doc in docs.values()]
    for key, command, k in VERIFY_EXTRA:
        ops.append(_verify_op(docs[key], k) if command == "verify"
                   else _analyze_op(docs[key]))
    random.Random(seed).shuffle(ops)
    return ops


# --- sweep -------------------------------------------------------------------

# (document, seeded edges deleted per round); theta2-64 sits in the
# middle of the cost order and holds the median
SWEEP = (("theta2-32", 16), ("split3-48", 16), ("theta2-64", 40),
         ("split2-80", 16), ("theta3-32", 16))


def sweep_setup(seed: int, workdir: Path, smoke: bool) -> dict[str, Doc]:
    docs = _optimal_docs([key for key, _ in SWEEP], seed, workdir, smoke)
    for doc in docs.values():
        doc.drawing = docio.loads_drawing(doc.path.read_text(encoding="utf-8"))
    return docs


def _sweep_op(doc: Doc, e: int) -> Op:
    name = f"check_optimal_{doc.k}planar"

    def run():
        mutant = drawing.remove_base_edge(doc.drawing, e)
        report = getattr(characterize, name)(mutant, fail_fast=True)
        return mutant.m, report.optimal

    def check(result) -> str | None:
        m, optimal = result
        if optimal or m != doc.m - 1:
            return (f"{doc.key} without edge {e}: m={m}, "
                    f"optimal={optimal}; expected m={doc.m - 1}, rejected")
        return None

    return Op("sweep", doc.facts(), run, check)


def sweep_plan(docs: dict[str, Doc], seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for key, count in SWEEP:
        doc = docs[key]
        edges = sorted(doc.drawing.base_edges)
        ops += [_sweep_op(doc, e)
                for e in rng.sample(edges, min(count, len(edges)))]
    rng.shuffle(ops)
    return ops


# --- build -------------------------------------------------------------------

# (class, family, size, missing middle chord or None for a seeded one)
# generated per round.  Theta skeletons are named by spec, split ones are
# read from stored skeleton files.  The three theta3-48 operations hold
# the p80 tail and the three theta3-32 operations the median.
BUILD = (
    (3, "theta3", 48, 0), (3, "theta3", 48, 1), (3, "theta3", 48, 2),
    (3, "split3", 88, None), (2, "split2", 110, None),
    (2, "theta2", 64, 0),
    (3, "theta3", 32, 0), (3, "theta3", 32, 1), (3, "theta3", 32, 2),
    (2, "split2", 80, None), (2, "theta2", 48, 0), (3, "split3", 48, None),
    (3, "theta3", 16, 2), (2, "dodecahedron", 20, 0),
)
_BAR = re.compile(r"bar v=(\d+) y=(\d+) x=(-?\d+)\.\.(-?\d+)$")
_SEG = re.compile(r"seg (\d+)-(\d+) x=(-?\d+) y=(\d+)\.\.(\d+) crossed=(\S+)$")


@dataclass
class BuildSpec:
    k: int
    family: str
    skeleton: str   # the --skeleton argument
    n: int
    missing_middle: int


def build_setup(seed: int, workdir: Path, smoke: bool) -> list[BuildSpec]:
    specs = []
    for k, family, size, mm in BUILD:
        rng = random.Random(f"{seed}:{family}-{size}")
        size = _size(family, size, smoke)
        if mm is None:
            mm = rng.randrange(3) if k == 3 else 0
        if family.startswith("theta"):
            n = 2 + 3 * size // 2 if k == 2 else 2 * size + 2
            specs.append(BuildSpec(k, family, f"theta:{size}", n, mm))
        elif family == "dodecahedron":
            specs.append(BuildSpec(k, family, "dodecahedron", 20, mm))
        else:
            skeleton = _skeleton(family, size, rng)
            path = workdir / f"{family}-{size}.skeleton.json"
            plain = drawing.Drawing.from_plane(skeleton)
            docio.save_drawing(plain, str(path))
            specs.append(BuildSpec(k, family, f"file:{path}", skeleton.n, mm))
    return specs


def _parse_barvis(out: str) -> visibility.BarVisibilityRep:
    bars, segs = [], []
    for line in out.splitlines():
        if mb := _BAR.match(line):
            bars.append(visibility.Bar(*map(int, mb.groups())))
        elif ms := _SEG.match(line):
            u, v, x, y0, y1 = map(int, ms.groups()[:5])
            crossed = () if ms[6] == "-" else tuple(
                int(c) for c in ms[6].split(","))
            segs.append(visibility.VisibilitySegment(u, v, x, y0, y1,
                                                     crossed))
    return visibility.BarVisibilityRep(tuple(bars), tuple(segs))


def _build_op(spec: BuildSpec, idx: int, workdir: Path) -> Op:
    m = int(density_bound(spec.k, spec.n))
    stem = workdir / f"build-{idx}"
    doc, svg, dot, bar = (Path(f"{stem}{ext}") for ext in
                          (".json", ".svg", ".dot", ".bar.svg"))
    calls = [["generate", "--class", f"{spec.k}opt",
              "--skeleton", spec.skeleton,
              "--missing-middle", str(spec.missing_middle), "-o", str(doc)],
             ["export", "--format", "svg", str(doc), "-o", str(svg)],
             ["export", "--format", "dot", str(doc), "-o", str(dot)]]
    if spec.family == "dodecahedron":
        calls.append(["barvis", str(doc), "--svg", str(bar)])
    name = (f"{spec.k}opt-{spec.skeleton.split('/')[-1]}"
            f"-mm{spec.missing_middle}")
    # crossings, bytes and parallel classes are read off the first output
    facts = DocFacts(name, spec.family, spec.k, spec.n, m, 0, 0, 0)

    def run():
        return [_cli(argv) for argv in calls]

    def check(results) -> str | None:
        for argv, (code, _out) in zip(calls, results):
            if code != 0:
                return f"{' '.join(argv)}: exit {code}, expected 0"
        text = doc.read_text(encoding="utf-8")
        d = docio.loads_drawing(text)
        if (d.n, d.m) != (spec.n, m):
            return f"{spec.skeleton}: n={d.n} m={d.m}, expected {spec.n} {m}"
        fresh = DocFacts.of(name, spec.family, spec.k, d, text)
        facts.crossings, facts.bytes = fresh.crossings, fresh.bytes
        facts.max_parallel = fresh.max_parallel
        ET.parse(svg)
        edges = sum(1 for line in dot.read_text(encoding="utf-8").splitlines()
                    if " -- " in line)
        if edges != m:
            return f"{spec.skeleton}: DOT has {edges} edges, expected {m}"
        if spec.family == "dodecahedron":
            rep = _parse_barvis(results[-1][1])
            ET.parse(bar)
            if (len(rep.bars), len(rep.segments)) != (spec.n, m):
                return (f"barvis: {len(rep.bars)} bars and "
                        f"{len(rep.segments)} segments, expected {spec.n} "
                        f"and {m}")
            problems = visibility.verify_bar1(rep)
            if problems:
                return f"barvis: {problems[0]}"
        return None

    return Op("build", facts, run, check)


def build_plan(specs: list[BuildSpec], seed: int, workdir: Path) -> list[Op]:
    """The operations in BUILD's order, whatever the seed: the order in
    which large documents come sets how fragmented the heap gets, and so
    the peak resident set."""
    return [_build_op(spec, i, workdir) for i, spec in enumerate(specs)]


WORKLOADS = {
    "verify": Workload("verify", 90, verify_setup, verify_plan),
    "sweep": Workload("sweep", 95, sweep_setup, sweep_plan),
    "build": Workload("build", 80, build_setup, build_plan),
}
