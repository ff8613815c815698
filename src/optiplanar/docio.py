"""Reading, writing, and exporting drawings.

Drawings travel as JSON documents (format_version 1) that spell out the
full planarization: vertices with their kind (real or crossing), darts
with twin and origin, clockwise rotations, and the base edges with their
dart paths.  Saving is canonical (sorted ids, rotations started at their
smallest dart, two-space indentation, trailing newline), so the same
drawing always serializes to the same bytes; the writer emits the text
that ``json.dumps(indent=2)`` would give, directly.  Loading validates
the document structurally and then geometrically; anything that parses
but does not describe a valid drawing is rejected.

Exports are one-way: SVG renders the planarization with a spring-free
barycentric layout (every face stellated, the largest face pinned to a
regular polygon), found by conjugate gradients on the sparse Laplacian
of the free vertices, so a solve that does not converge is a
LayoutFailure; DOT emits the base graph with crossing counts.
"""

from __future__ import annotations

import json
import math
import os
from typing import Mapping

from .drawing import Drawing, skeleton_edge_ids, validate
from .errors import (
    InvariantViolation,
    LayoutFailure,
    OptiplanarError,
    ParseError,
    VersionMismatch,
)
from .plane import PlaneMultigraph

FORMAT_VERSION = 1
SVG_SIZE = 640  # width and height of exported SVG images, in pixels


def _svg_frame(body: list[str]) -> str:
    """A standalone SVG image of SVG_SIZE on white around the body lines."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f'<rect width="{SVG_SIZE}" height="{SVG_SIZE}" fill="white"/>',
        *body, "</svg>"]) + "\n"


# --- JSON documents ---------------------------------------------------------


def _block(opening: str, items: list[str], closing: str) -> str:
    """A JSON array or object at depth 1 from its rendered members."""
    if not items:
        return opening + closing
    return f"{opening}\n" + ",\n".join(items) + f"\n  {closing}"


def _ints(values, pad: str) -> str:
    """A JSON array of integers whose brackets sit at indentation pad."""
    if not values:
        return "[]"
    inner = f",\n{pad}  ".join(map(str, values))
    return f"[\n{pad}  {inner}\n{pad}]"


def dumps_drawing(d: Drawing) -> str:
    """Serialize a drawing to its canonical JSON text.

    The text is what ``json.dumps(doc, indent=2)`` and a final newline
    give for the document, written directly: only the metadata goes
    through ``json``.
    """
    plane = d.plane
    crossing = d.crossing_vertices
    vertex_ids = sorted(plane.vertices)
    vertices = [
        f'    {{\n      "id": {v},\n      "kind": '
        f'"{"crossing" if v in crossing else "real"}"\n    }}'
        for v in vertex_ids
    ]
    darts = [
        f'    "{g}": {{\n      "twin": {plane.twin(g)},\n'
        f'      "origin": {plane.origin(g)}\n    }}'
        for g in sorted(plane.darts)
    ]
    rotations = []
    for v in vertex_ids:
        rot = plane.rotation(v)
        if rot:
            k = rot.index(min(rot))
            rot = rot[k:] + rot[:k]
        rotations.append(f'    "{v}": {_ints(rot, "    ")}')
    base_edges = [
        f'    {{\n      "id": {e},\n'
        f'      "endpoints": {_ints(d.base_edges[e], "      ")},\n'
        f'      "dart_path": {_ints(d.edge_paths[e], "      ")}\n    }}'
        for e in sorted(d.base_edges)
    ]
    metadata = json.dumps(d.metadata, indent=2).replace("\n", "\n  ")
    return (f'{{\n  "format_version": {FORMAT_VERSION},\n'
            f'  "vertices": {_block("[", vertices, "]")},\n'
            f'  "darts": {_block("{", darts, "}")},\n'
            f'  "rotations": {_block("{", rotations, "}")},\n'
            f'  "base_edges": {_block("[", base_edges, "]")},\n'
            f'  "metadata": {metadata}\n}}\n')


def loads_drawing(text: str) -> Drawing:
    """Parse a JSON document into a validated Drawing.

    Raises:
        ParseError: the text is not a well-formed document.
        VersionMismatch: the document declares another format version.
        InvariantViolation: the document describes an invalid drawing;
            the exception carries the validation diagnostics.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("not valid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("the document must be a JSON object")
    version = doc.get("format_version")
    if version is None:
        raise ParseError("missing format_version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format_version {version!r} is not "
                              f"supported, expected {FORMAT_VERSION}")
    for key in ("vertices", "darts", "rotations", "base_edges"):
        if key not in doc:
            raise ParseError(f"missing {key}")
    for key in ("darts", "rotations"):
        if not isinstance(doc[key], Mapping):
            raise ParseError(f"{key} must be an object")

    try:
        crossing = set()
        vertex_ids = set()
        for entry in doc["vertices"]:
            v = int(entry["id"])
            if v in vertex_ids:
                raise ParseError(f"duplicate vertex id {v}")
            vertex_ids.add(v)
            kind = entry.get("kind", "real")
            if kind not in ("real", "crossing"):
                raise ParseError(f"vertex {v} has unknown kind {kind!r}")
            if kind == "crossing":
                crossing.add(v)
        twin = {}
        declared_origins = []
        for key, entry in doc["darts"].items():
            twin[int(key)] = int(entry["twin"])
            declared_origins.append((int(key), int(entry["origin"])))
        rotations = {}
        for key, rot in doc["rotations"].items():
            v = int(key)
            if v not in vertex_ids:
                raise ParseError(f"rotation for unknown vertex {v}")
            rotations[v] = [int(x) for x in rot]
        for v in vertex_ids:
            rotations.setdefault(v, [])
        base_edges = {}
        edge_paths = {}
        for entry in doc["base_edges"]:
            e = int(entry["id"])
            if e in base_edges:
                raise ParseError(f"duplicate base edge id {e}")
            u, v = entry["endpoints"]
            base_edges[e] = (int(u), int(v))
            edge_paths[e] = tuple(int(x) for x in entry["dart_path"])
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, Mapping):
            raise ParseError("metadata must be an object")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc

    try:
        plane = PlaneMultigraph(rotations, twin)
        for dart, origin in declared_origins:
            if plane.origin(dart) != origin:
                raise InvariantViolation(
                    f"dart {dart} declares origin {origin} but sits in "
                    f"the rotation of {plane.origin(dart)}")
        d = Drawing(plane, frozenset(crossing), base_edges, edge_paths,
                    metadata)
    except InvariantViolation:
        raise
    except (OptiplanarError, ValueError) as exc:
        raise InvariantViolation(f"document does not describe a "
                                 f"drawing: {exc}") from exc
    problems = validate(d)
    if problems:
        raise InvariantViolation(
            f"drawing fails validation: {problems[0]}",
            diagnostics=tuple(problems))
    return d


def save_drawing(d: Drawing, path: str) -> None:
    """Write the canonical JSON document to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_drawing(d))


def load_drawing(source) -> Drawing:
    """Read and validate a JSON drawing document from a path or an open
    binary file, decoding its bytes as UTF-8.

    Raises:
        ParseError: the bytes are not UTF-8, or as for loads_drawing.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            return load_drawing(fh)
    try:
        text = source.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    return loads_drawing(text)


# --- SVG export -------------------------------------------------------------


def _cg_iteration_cap(n: int) -> int:
    # n steps suffice in exact arithmetic; rounding may need a few more
    return 10 * n + 100


def _solve_laplacian(deg, rows, cols, b):
    """Solve (diag(deg) - A) x = b by Jacobi-preconditioned conjugate
    gradients, where A has a 1 at (rows[i], cols[i]) for every i (summed
    over repeats) and the matrix is symmetric positive definite.

    Raises:
        LayoutFailure: no relative residual of 1e-12 within the cap.
    """
    import numpy as np

    n = len(b)
    x = np.zeros(n)
    r = b.copy()
    stop = 1e-24 * (b @ b)
    z = r / deg
    p = z.copy()
    rz = r @ z
    for _ in range(_cg_iteration_cap(n)):
        if r @ r <= stop:
            return x
        q = deg * p - np.bincount(rows, weights=p[cols], minlength=n)
        alpha = rz / (p @ q)
        x += alpha * p
        r -= alpha * q
        z = r / deg
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    raise LayoutFailure(f"the SVG layout solve did not converge in "
                        f"{_cg_iteration_cap(n)} iterations")


def _layout_positions(d: Drawing) -> dict[int, tuple[float, float]]:
    """Planar positions for every planarization vertex.

    Barycentric layout (Tutte): the longest planarization face is pinned
    to a regular polygon, every other face gets a stellation apex, and
    all free vertices settle at the average of their neighbours.  The
    linear system is the Laplacian of the free vertices, kept sparse as
    index pairs and solved by conjugate gradients, so time and memory
    grow about linearly with the drawing.

    Raises:
        LayoutFailure: the planarization has no edge or is disconnected,
            so the solve has no unique solution, or the solve does not
            converge.
    """
    plane = d.plane
    faces = plane.faces()
    if not faces or not plane.is_connected():
        raise LayoutFailure("the SVG layout needs a connected "
                            "planarization with at least one edge")
    outer = max(range(len(faces)),
                key=lambda i: (faces[i].length, -i))

    pinned: dict[int, tuple[float, float]] = {}
    corners = faces[outer].vertices
    for idx, v in enumerate(corners):
        if v in pinned:
            continue
        angle = 2 * math.pi * idx / len(corners)
        pinned[v] = (math.cos(angle), math.sin(angle))

    # neighbour lists with stellation apexes (negative ids keep them
    # apart); only free vertices need theirs
    adj = {v: [plane.head(g) for g in plane.rotation(v)]
           for v in plane.vertices if v not in pinned}
    for i, walk in enumerate(faces):
        if i == outer:
            continue
        adj[-(i + 1)] = list(walk.vertices)
        for v in walk.vertices:
            if v not in pinned:
                adj[v].append(-(i + 1))
    if not adj:
        return pinned
    # imported here so that reading and checking drawings never loads it
    import numpy as np

    free = list(adj)
    index = {v: i for i, v in enumerate(free)}
    rows, cols = [], []
    rhs_x, rhs_y = [0.0] * len(free), [0.0] * len(free)
    for i, v in enumerate(free):
        for u in adj[v]:
            j = index.get(u)
            if j is None:
                rhs_x[i] += pinned[u][0]
                rhs_y[i] += pinned[u][1]
            else:
                rows.append(i)
                cols.append(j)
    deg = np.array([len(adj[v]) for v in free], dtype=float)
    rows = np.array(rows, dtype=np.intp)
    cols = np.array(cols, dtype=np.intp)
    xs = _solve_laplacian(deg, rows, cols, np.array(rhs_x))
    ys = _solve_laplacian(deg, rows, cols, np.array(rhs_y))
    positions = dict(pinned)
    for i, v in enumerate(free):
        if v >= 0:
            positions[v] = (float(xs[i]), float(ys[i]))
    return positions


def export_svg(d: Drawing) -> str:
    """Render the drawing as a standalone SVG string.

    Uncrossed edges are drawn solid, crossed edges as thinner accented
    polylines through their crossing points; real vertices are labelled
    dots, crossings small markers.
    """
    pos = _layout_positions(d)
    xs = [p[0] for p in pos.values()]
    ys = [p[1] for p in pos.values()]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y) or 1.0
    size, pad = SVG_SIZE, 40.0
    scale = (size - 2 * pad) / span

    def at(v: int) -> tuple[float, float]:
        x, y = pos[v]
        return (pad + (x - lo_x) * scale, pad + (y - lo_y) * scale)

    sk_ids = skeleton_edge_ids(d)
    parts = []
    for e in sorted(d.base_edges):
        path = d.edge_paths[e]
        points = [at(d.plane.origin(path[0]))]
        points += [at(d.plane.head(g)) for g in path]
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        if e in sk_ids:
            style = 'stroke="#1a1a1a" stroke-width="2.0"'
        else:
            style = 'stroke="#c03028" stroke-width="1.0"'
        parts.append(f'<polyline points="{coords}" fill="none" {style}/>')
    for v in sorted(d.plane.vertices):
        x, y = at(v)
        if v in d.crossing_vertices:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.5" '
                         f'fill="#c03028"/>')
        else:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4.0" '
                         f'fill="#1a1a1a"/>')
            parts.append(f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" '
                         f'font-size="11" font-family="sans-serif">'
                         f'{v}</text>')
    return _svg_frame(parts)


# --- DOT export -------------------------------------------------------------


def export_dot(d: Drawing) -> str:
    """The base multigraph in DOT syntax with crossing counts."""
    lines = ["graph drawing {"]
    lines.append(f"  // {d.n} vertices, {d.m} edges, "
                 f"{len(d.crossing_vertices)} crossings")
    for v in sorted(v for v in d.plane.vertices
                    if v not in d.crossing_vertices):
        lines.append(f"  {v};")
    for e in sorted(d.base_edges):
        u, v = d.base_edges[e]
        c = d.crossings_of(e)
        lines.append(f"  {u} -- {v} [label=\"{c}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
