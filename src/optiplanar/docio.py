"""Reading, writing, and exporting drawings.

Drawings travel as JSON documents (format_version 1) that spell out the
full planarization: vertices with their kind (real or crossing), darts
with twin and origin, clockwise rotations, and the base edges with their
dart paths.  Saving is canonical (sorted ids, rotations started at their
smallest dart, two-space indentation, trailing newline), so the same
drawing always serializes to the same bytes.  Loading validates the
document structurally and then geometrically; anything that parses but
does not describe a valid drawing is rejected.

Exports are one-way: SVG renders the planarization with a spring-free
barycentric layout (every face stellated, the largest face pinned to a
regular polygon), DOT emits the base graph with crossing counts.
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
    ParseError,
    VersionMismatch,
)
from .plane import PlaneMultigraph

FORMAT_VERSION = 1
SVG_SIZE = 640  # width and height of exported SVG images, in pixels


# --- JSON documents ---------------------------------------------------------


def dumps_drawing(d: Drawing) -> str:
    """Serialize a drawing to its canonical JSON text."""
    plane = d.plane
    vertices = [
        {"id": v,
         "kind": "crossing" if v in d.crossing_vertices else "real"}
        for v in sorted(plane.vertices)
    ]
    darts = {
        str(dart): {"twin": plane.twin(dart), "origin": plane.origin(dart)}
        for dart in sorted(plane.darts)
    }
    rotations = {}
    for v in sorted(plane.vertices):
        rot = list(plane.rotation(v))
        if rot:
            k = rot.index(min(rot))
            rot = rot[k:] + rot[:k]
        rotations[str(v)] = rot
    base_edges = [
        {"id": e,
         "endpoints": list(d.base_edges[e]),
         "dart_path": list(d.edge_paths[e])}
        for e in sorted(d.base_edges)
    ]
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": vertices,
        "darts": darts,
        "rotations": rotations,
        "base_edges": base_edges,
        "metadata": dict(d.metadata),
    }
    return json.dumps(doc, indent=2) + "\n"


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

    try:
        crossing = set()
        vertex_ids = set()
        for entry in doc["vertices"]:
            v = int(entry["id"])
            vertex_ids.add(v)
            kind = entry.get("kind", "real")
            if kind not in ("real", "crossing"):
                raise ParseError(f"vertex {v} has unknown kind {kind!r}")
            if kind == "crossing":
                crossing.add(v)
        twin = {}
        for key, entry in doc["darts"].items():
            twin[int(key)] = int(entry["twin"])
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
        metadata = doc.get("metadata") or {}
        if not isinstance(metadata, Mapping):
            raise ParseError("metadata must be an object")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc

    try:
        plane = PlaneMultigraph(rotations, twin)
        for key, entry in doc["darts"].items():
            dart, origin = int(key), int(entry["origin"])
            if plane.origin(dart) != origin:
                raise InvariantViolation(
                    f"dart {dart} declares origin {origin} but sits in "
                    f"the rotation of {plane.origin(dart)}")
        d = Drawing(plane, frozenset(crossing), base_edges, edge_paths,
                    metadata)
    except InvariantViolation:
        raise
    except Exception as exc:
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


def _layout_positions(d: Drawing) -> dict[int, tuple[float, float]]:
    """Planar positions for every planarization vertex.

    Barycentric layout: the longest planarization face is pinned to a
    regular polygon, every other face gets a stellation apex, and all
    free vertices settle at the average of their neighbours.

    Raises:
        LayoutFailure: the planarization has no edge or is disconnected,
            so the solve has no unique solution.
    """
    plane = d.plane
    faces = plane.faces()
    if not faces or not plane.is_connected():
        raise LayoutFailure("the SVG layout needs a connected "
                            "planarization with at least one edge")
    outer = max(range(len(faces)),
                key=lambda i: (faces[i].length, -i))

    # adjacency with stellation apexes (negative ids keep them apart)
    adj: dict[int, list[int]] = {v: [] for v in plane.vertices}
    for dart in plane.darts:
        adj[plane.origin(dart)].append(plane.head(dart))
    for i, walk in enumerate(faces):
        if i == outer:
            continue
        apex = -(i + 1)
        adj[apex] = []
        for v in walk.vertices:
            adj[apex].append(v)
            adj[v].append(apex)

    pinned: dict[int, tuple[float, float]] = {}
    corners = faces[outer].vertices
    for idx, v in enumerate(corners):
        if v in pinned:
            continue
        angle = 2 * math.pi * idx / len(corners)
        pinned[v] = (math.cos(angle), math.sin(angle))

    free = sorted(v for v in adj if v not in pinned)
    if not free:
        return pinned
    # imported here so that reading and checking drawings never loads it
    import numpy as np

    index = {v: i for i, v in enumerate(free)}
    n = len(free)
    lap = np.zeros((n, n))
    rhs = np.zeros((n, 2))
    for v in free:
        i = index[v]
        for u in adj[v]:
            lap[i, i] += 1.0
            if u in pinned:
                rhs[i, 0] += pinned[u][0]
                rhs[i, 1] += pinned[u][1]
            else:
                lap[i, index[u]] -= 1.0
    solved = np.linalg.solve(lap, rhs)
    positions = dict(pinned)
    for v in free:
        if v >= 0:
            positions[v] = (float(solved[index[v], 0]),
                            float(solved[index[v], 1]))
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
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
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
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
