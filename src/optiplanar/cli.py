"""Command line interface.

Subcommands:

- ``generate``: build an optimal drawing from a named skeleton family
  and write its JSON document.
- ``verify``: run the structural characterization on drawing documents;
  exit 0 only when every input is optimal.
- ``analyze``: print the crossing structure of a drawing.
- ``barvis``: compute a bar 1-visibility layout of a simple optimal
  2-planar drawing; prints the bars and segments, optionally renders
  them to SVG.
- ``export``: render a drawing document to SVG or DOT.

``-`` names standard input or output.  Exit codes: 0 success (and, for
verify, all inputs optimal), 1 failed verdict, 2 usage error, 3 invalid
input or I/O failure.  Output is plain text without escape codes, so
NO_COLOR and friends need no special handling.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .characterize import (
    RULES,
    CharacterizationReport,
    check_optimal_2planar,
    check_optimal_3planar,
    density_audit,
)
from .docio import (
    SVG_SIZE,
    _svg_frame,
    dumps_drawing,
    export_dot,
    export_svg,
    load_drawing,
)
from .drawing import (
    Drawing,
    crossing_components,
    crossing_histogram,
    is_fan_planar,
    is_quasi_planar,
    is_simple,
    true_planar_skeleton,
)
from .errors import NotOptimal2Planar, NotSimple, OptiplanarError
from .generate import (
    dodecahedron,
    generate_optimal,
    theta_hexangulation,
    theta_pentagulation,
)
from .plane import PlaneMultigraph
from .visibility import extend_to_bar1


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_drawing(path: str) -> Drawing:
    # stdin's bytes, so that they are decoded as UTF-8 whatever the locale
    return load_drawing(sys.stdin.buffer if path == "-" else path)


_CLASSES = {f"{k}opt": k for k in RULES}


def _skeleton_from_spec(spec: str, k: int) -> PlaneMultigraph:
    if spec == "dodecahedron":
        return dodecahedron()
    if spec.startswith("theta:"):
        try:
            p = int(spec.split(":", 1)[1])
        except ValueError:
            raise OptiplanarError(f"bad path count in {spec!r}")
        theta = {5: theta_pentagulation, 6: theta_hexangulation}
        return theta[RULES[k].face_length](p)
    if spec.startswith("file:"):
        d = _load_drawing(spec.split(":", 1)[1])
        if d.crossing_vertices:
            raise OptiplanarError(
                "a skeleton file must contain a crossing-free drawing")
        return d.plane
    raise OptiplanarError(
        f"unknown skeleton {spec!r}; use theta:P, dodecahedron or "
        f"file:PATH")


def cmd_generate(args: argparse.Namespace) -> int:
    k = _CLASSES[args.klass]
    meta = {"generator": {"class": args.klass, "skeleton": args.skeleton}}
    if len(RULES[k].patterns) > 1:
        meta["generator"]["missing_middle"] = args.missing_middle
    try:
        skeleton = _skeleton_from_spec(args.skeleton, k)
        d = generate_optimal(k, skeleton,
                             missing_middle=args.missing_middle,
                             metadata=meta)
    except ValueError as exc:
        # too few theta paths, or a disconnected or too small skeleton
        raise OptiplanarError(str(exc)) from exc
    _write_text(args.output, dumps_drawing(d))
    return 0


def _check(d: Drawing, k: int, *, mode: str = "strict",
           fail_fast: bool = False) -> CharacterizationReport:
    # through the module globals, which bench/spans.py rebinds
    if k == 2:
        return check_optimal_2planar(d, fail_fast=fail_fast)
    return check_optimal_3planar(d, mode=mode, fail_fast=fail_fast)


def cmd_verify(args: argparse.Namespace) -> int:
    all_ok = True
    for path in args.inputs:
        d = _load_drawing(path)
        report = _check(d, _CLASSES[args.klass], mode=args.mode)
        verdict = "optimal" if report.optimal else "NOT optimal"
        print(f"{path}: {verdict} {report.k}-planar "
              f"(n={d.n}, m={d.m})")
        for c in report.failures:
            print(f"  {c}")
        all_ok = all_ok and report.optimal
    return 0 if all_ok else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    for path in args.inputs:
        d = _load_drawing(path)
        skeleton = true_planar_skeleton(d)
        hist = " ".join(f"{k}:{v}"
                        for k, v in crossing_histogram(d).items())
        audits = [density_audit(d, k) for k in RULES]
        print(f"input: {path}")
        print(f"vertices: {d.n}")
        print(f"edges: {d.m}")
        print(f"crossings: {len(d.crossing_vertices)}")
        print(f"crossing histogram: {hist}")
        print(f"simple: {'yes' if is_simple(d) else 'no'}")
        print(f"quasi-planar: {'yes' if is_quasi_planar(d) else 'no'}")
        print(f"fan-planar: {'yes' if is_fan_planar(d) else 'no'}")
        print(f"crossing components: {len(crossing_components(d))}")
        faces = sorted({w.length for w in skeleton.faces()})
        print(f"skeleton: n={skeleton.n} m={skeleton.m} "
              f"f={len(skeleton.faces())} "
              f"connected={'yes' if skeleton.is_connected() else 'no'} "
              f"face-lengths={faces}")
        if any(a.bound is None for a in audits):
            print("density: no bound below n = 3")
        else:
            print("density: " + ", ".join(
                f"{a.k}-planar bound {a.bound} (slack {a.slack})"
                for a in audits))
        print("optimal: " + ", ".join(
            f"{k}-planar "
            f"{'yes' if _check(d, k, fail_fast=True).optimal else 'no'}"
            for k in RULES))
    return 0


def _bar_svg(rep) -> str:
    bars = rep.bars
    segs = rep.segments
    max_x = max(b.x1 for b in bars)
    max_y = max(b.y for b in bars)
    size, pad = SVG_SIZE, 40.0
    sx = (size - 2 * pad) / max(max_x, 1)
    sy = (size - 2 * pad) / max(max_y - 1, 1)

    def px(x):
        return pad + x * sx

    def py(y):
        return size - pad - (y - 1) * sy

    parts = []
    for seg in segs:
        color = "#c03028" if seg.crossed else "#888888"
        parts.append(
            f'<line x1="{px(seg.x):.2f}" y1="{py(seg.y0):.2f}" '
            f'x2="{px(seg.x):.2f}" y2="{py(seg.y1):.2f}" '
            f'stroke="{color}" stroke-width="1.0"/>')
    for b in bars:
        parts.append(
            f'<line x1="{px(b.x0):.2f}" y1="{py(b.y):.2f}" '
            f'x2="{px(b.x1):.2f}" y2="{py(b.y):.2f}" '
            f'stroke="#1a1a1a" stroke-width="4.0"/>')
        parts.append(f'<text x="{px(b.x0) - 18:.2f}" y="{py(b.y) + 4:.2f}" '
                     f'font-size="11" font-family="sans-serif">'
                     f'{b.vertex}</text>')
    return _svg_frame(parts)


def cmd_barvis(args: argparse.Namespace) -> int:
    d = _load_drawing(args.input)
    try:
        rep = extend_to_bar1(d)
    except (NotSimple, NotOptimal2Planar) as exc:
        print(f"{args.input}: no bar 1-visibility layout: {exc}",
              file=sys.stderr)
        return 1
    print(f"bars: {len(rep.bars)}  segments: {len(rep.segments)}  "
          f"max bars crossed by a segment: {rep.max_crossed}")
    for b in rep.bars:
        print(f"bar v={b.vertex} y={b.y} x={b.x0}..{b.x1}")
    for seg in rep.segments:
        crossed = ",".join(str(v) for v in seg.crossed) or "-"
        print(f"seg {seg.u}-{seg.v} x={seg.x} y={seg.y0}..{seg.y1} "
              f"crossed={crossed}")
    if args.svg is not None:
        _write_text(args.svg, _bar_svg(rep))
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    d = _load_drawing(args.input)
    if args.format == "svg":
        _write_text(args.output, export_svg(d))
    else:
        _write_text(args.output, export_dot(d))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing leaves
    it unchanged, so every call of main shares it."""
    parser = argparse.ArgumentParser(
        prog="optiplanar",
        description="generate, verify and export optimal 2- and "
                    "3-planar drawings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build an optimal drawing")
    p.add_argument("--class", dest="klass", required=True,
                   choices=_CLASSES)
    p.add_argument("--skeleton", required=True,
                   help="theta:P, dodecahedron, or file:PATH")
    p.add_argument("--missing-middle", type=int, default=0,
                   choices=range(len(RULES[3].patterns)),
                   help="which middle chord each hexagon omits")
    p.add_argument("-o", "--output", default=None,
                   help="output file (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check optimality of drawings")
    p.add_argument("--class", dest="klass", required=True,
                   choices=_CLASSES)
    p.add_argument("--mode", default="strict", choices=("strict", "count"),
                   help="3-planar chord check strictness")
    p.add_argument("inputs", nargs="+",
                   help="drawing documents ('-' for stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="print crossing structure")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("barvis",
                       help="bar 1-visibility layout of a simple "
                            "optimal 2-planar drawing")
    p.add_argument("input")
    p.add_argument("--svg", default=None,
                   help="also render the layout to this SVG file")
    p.set_defaults(func=cmd_barvis)

    p = sub.add_parser("export", help="render a drawing")
    p.add_argument("--format", required=True, choices=("svg", "dot"))
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OptiplanarError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
