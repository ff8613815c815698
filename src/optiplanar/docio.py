r"""Reading, writing, and exporting drawings.

Drawings travel as JSON documents (format_version 1) that spell out the
full planarization: vertices with their kind (real or crossing), darts
with twin and origin, clockwise rotations, and the base edges with their
dart paths.  Saving is canonical (sorted ids, rotations started at their
smallest dart, two-space indentation, trailing newline), so the same
drawing always serializes to the same bytes; the writer emits the text
that ``json.dumps(indent=2)`` would give, directly.

Loading is strict.  Each breach of these rules is a ParseError that
names the first offender: a repeated key, or a member by its path, such
as ``darts["4"].origin``:

- no object repeats a key, and no object has a key the format does not
  define (``metadata`` is free-form; only its keys must be unique);
- ``format_version``, ids, twins, origins, endpoints and the darts of
  rotations and dart paths are JSON integers: never floats, strings or
  booleans;
- rotations, endpoints and dart paths are JSON arrays, and endpoints hold
  exactly two ids;
- the keys of ``darts`` and ``rotations`` are ids in canonical decimal:
  ``"7"``, never ``"007"``, ``" 7"``, ``"+7"``, ``"-0"`` or ``"7.0"``.

Repeated keys are ruled out without a Python call per object.  The text
is parsed plainly and checked.  Each colon of the parsed document (one
per key, and those inside strings) comes from its own literal colon or
``\u003a``/``\u003A`` escape in the text, so the text holds at least as
many of these as the document holds colons, and exactly as many only if
no key was dropped: a repeated key drops its own colon and all those of
the value it overwrites.  Only a backslash starts an escape, so the
escapes are counted only in a text that holds one.  Once the checks
pass, only the metadata can hold a string with a colon, so only the
metadata is walked.  A count that does not match, or an error on the
way, sends the text through the parse with a hook on every object,
which names the first repeated key, and then through the same checks;
that path decides every message.

The ids and members of a table are proved once, by the decoder and by
counts.  The keys of ``darts`` and ``rotations`` are joined by commas
and parsed as one JSON array.  JSON's integer grammar,
``-?(0|[1-9][0-9]*)``, is canonical decimal apart from ``-0``.  If the
array holds exactly one ``int`` per key, it nests no array, object or
string, so every comma of the text separates two integers, and none
can sit inside a key: each key is one integer, with JSON whitespace
around it at most.  A key without whitespace that is not ``-0`` is
canonical.  The keys must be ASCII too, since the pure-Python decoder
reads every Unicode digit, and the decoder's digit limit is ``int``'s,
so a key too long for one is too long for the other.  The members need
no scan of their keys: once every entry holds the table's required
members (``twin`` and ``origin``; ``id``, ``endpoints`` and
``dart_path``; ``id``), no entry has an unknown key exactly when the
entries' lengths sum to 2 per dart, 3 per base edge, or 1 per vertex
plus 1 per vertex with ``kind``, and the colon count takes the darts'
and base edges' members from those sums.  Only when a parse, a count,
a column or a set of types fails do the checks go key by key and entry
by entry, in the order that decides which fault is named.

A document that parses but does not describe a valid drawing is an
InvariantViolation.  Among these is a ``darts`` table that does not list
every dart of the rotations, or that declares a dart's origin other
than the vertex whose rotation holds it; the message names the first
such dart in document order, or the smallest one missing.

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
from itertools import chain, compress, count, repeat
from operator import contains, eq, itemgetter, methodcaller
from typing import Callable, Iterable

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


_DOCUMENT_KEYS = {"format_version", "vertices", "darts", "rotations",
                  "base_edges", "metadata"}
_VERTEX_KEYS = {"id", "kind"}
_DART_KEYS = {"twin", "origin"}
_EDGE_KEYS = {"id", "endpoints", "dart_path"}
_TYPE_NAMES = {int: "an integer", list: "an array", dict: "an object"}


def _spelled(value) -> str:
    """A JSON value as JSON text, cut short for a message."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice is a ParseError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {_spelled(key)}")
            seen.add(key)
    return obj


def _check_types(names: Iterable[str], values: list, kind: type) -> None:
    """Raise a ParseError naming the first value whose type is not
    exactly kind, so that a bool is no integer.  The values' names are
    read only to report that one."""
    if set(map(type, values)) <= {kind}:
        return
    for name, value in zip(names, values):
        if type(value) is not kind:
            raise ParseError(f"{name} must be {_TYPE_NAMES[kind]}, "
                             f"not {_spelled(value)}")


def _check_keys(names: Iterable[str], entries: list[dict],
                allowed: set) -> None:
    """Raise a ParseError naming the first key of the entries that is
    not allowed, and the entry's name."""
    if allowed.issuperset(chain.from_iterable(entries)):
        return
    for name, entry in zip(names, entries):
        for key in entry:
            if key not in allowed:
                raise ParseError(f"{name} has unknown key {_spelled(key)}")


def _column(names: Iterable[str], entries: list[dict], key: str) -> list:
    """The member key of every entry; a ParseError names the first entry
    that lacks it."""
    try:
        return list(map(itemgetter(key), entries))
    except KeyError:
        name = next(name for name, entry in zip(names, entries)
                    if key not in entry)
        raise ParseError(f"{name} is missing {_spelled(key)}") from None


def _columns(names: Callable[[], Iterable[str]], entries: list[dict],
             keys: tuple[str, ...], allowed: set, members: int):
    """A function from each of the keys to its column over the entries,
    once no entry has a key that is not allowed.

    When every entry holds the keys, no entry has another key exactly
    when the entries hold ``members`` members in all (see the module
    docstring), and the columns are read at once.  Otherwise _check_keys
    names the first unknown key, and _column the first entry that lacks
    a member; names() gives the entries' names to each of them.
    """
    try:
        columns = {key: list(map(itemgetter(key), entries)) for key in keys}
    except KeyError:
        columns = None
    if columns is not None and sum(map(len, entries)) == members:
        return columns.__getitem__
    _check_keys(names(), entries, allowed)
    return lambda key: _column(names(), entries, key)


def _is_canonical(key: str) -> bool:
    try:
        return str(int(key)) == key
    except ValueError:  # not a number, or too many digits to convert
        return False


def _ids(obj: dict, where: str) -> list[int]:
    """The keys of an object as integers; each must be spelled as its
    canonical decimal, so that no two spellings name one id.  The keys
    are read as one JSON array (see the module docstring)."""
    keys = list(obj)
    joined = ",".join(keys)
    try:
        ids = json.loads(f"[{joined}]")
    except (ValueError, RecursionError):
        ids = None
    if (ids is None or len(ids) != len(keys)
            or not set(map(type, ids)) <= {int} or not joined.isascii()
            or " " in joined or "\t" in joined or "\n" in joined
            or "\r" in joined or "-0" in obj):
        key = next(key for key in keys if not _is_canonical(key))
        raise ParseError(f"{where} key {_spelled(key)} is not an integer "
                         f"in canonical decimal")
    return ids


def _first_repeat(values: list):
    """The first value that occurs earlier in the list, or None."""
    if len(set(values)) == len(values):
        return None
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)


def _read_vertices(vertices: list) -> tuple[list[int], frozenset]:
    """The vertex ids in document order, and the crossing vertices."""
    _check_types((f"vertices[{i}]" for i in count()), vertices, dict)
    kinds_given = sum(map(contains, vertices, repeat("kind")))
    column = _columns(lambda: (f"vertices[{i}]" for i in count()), vertices,
                      ("id",), _VERTEX_KEYS, len(vertices) + kinds_given)
    ids = column("id")
    _check_types((f"vertices[{i}].id" for i in count()), ids, int)
    twice = _first_repeat(ids)
    if twice is not None:
        raise ParseError(f"duplicate vertex id {twice}")
    kinds = list(map(methodcaller("get", "kind", "real"), vertices))
    if kinds.count("real") + kinds.count("crossing") < len(kinds):
        v, kind = next((v, kind) for v, kind in zip(ids, kinds)
                       if kind not in ("real", "crossing"))
        raise ParseError(f"vertex {v} has unknown kind {kind!r}")
    return ids, frozenset(compress(ids, map(eq, kinds, repeat("crossing"))))


def _read_darts(darts: dict) -> tuple[list[int], list[int], list[int]]:
    """The dart ids, their twins and their declared origins."""
    ids = _ids(darts, "darts")
    entries = list(darts.values())
    _check_types((f'darts["{g}"]' for g in ids), entries, dict)
    column = _columns(lambda: (f'darts["{g}"]' for g in ids), entries,
                      ("twin", "origin"), _DART_KEYS, 2 * len(entries))
    twins = column("twin")
    _check_types((f'darts["{g}"].twin' for g in ids), twins, int)
    origins = column("origin")
    _check_types((f'darts["{g}"].origin' for g in ids), origins, int)
    return ids, twins, origins


def _read_rotations(rotations: dict, vertex_ids: list[int]) -> dict:
    """The rotation of every vertex, empty where none is given."""
    ids = _ids(rotations, "rotations")
    rots = list(rotations.values())
    _check_types((f'rotations["{v}"]' for v in ids), rots, list)
    _check_types((f'rotations["{v}"][{j}]'
                  for v, rot in zip(ids, rots) for j in range(len(rot))),
                 list(chain.from_iterable(rots)), int)
    known = set(vertex_ids)
    if not known.issuperset(ids):
        v = next(v for v in ids if v not in known)
        raise ParseError(f"rotation for unknown vertex {v}")
    out = dict(zip(ids, rots))
    if len(out) < len(known):
        for v in known:
            out.setdefault(v, [])
    return out


def _read_base_edges(edges: list) -> tuple[list[int], list, list]:
    """The base edge ids, their endpoint pairs and their dart paths."""
    _check_types((f"base_edges[{i}]" for i in count()), edges, dict)
    column = _columns(lambda: (f"base_edges[{i}]" for i in count()), edges,
                      ("id", "endpoints", "dart_path"), _EDGE_KEYS,
                      3 * len(edges))
    ids = column("id")
    _check_types((f"base_edges[{i}].id" for i in count()), ids, int)
    twice = _first_repeat(ids)
    if twice is not None:
        raise ParseError(f"duplicate base edge id {twice}")
    ends = column("endpoints")
    _check_types((f"base_edges[{i}].endpoints" for i in count()), ends, list)
    if not set(map(len, ends)) <= {2}:
        i, pair = next((i, pair) for i, pair in enumerate(ends)
                       if len(pair) != 2)
        raise ParseError(f"base_edges[{i}].endpoints must hold two vertex "
                         f"ids, not {_spelled(pair)}")
    _check_types((f"base_edges[{i}].endpoints[{j}]"
                  for i in count() for j in (0, 1)),
                 list(chain.from_iterable(ends)), int)
    paths = column("dart_path")
    _check_types((f"base_edges[{i}].dart_path" for i in count()), paths, list)
    _check_types((f"base_edges[{i}].dart_path[{j}]"
                  for i, path in enumerate(paths) for j in range(len(path))),
                 list(chain.from_iterable(paths)), int)
    return ids, ends, paths


def _hooked_parse(text: str):
    """The JSON value of the text, parsed with a hook that names the first
    repeated key."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ParseError("not valid JSON: nested too deeply") from exc
    except ValueError as exc:
        # malformed JSON, or an integer too long to convert
        raise ParseError(f"not valid JSON: {exc}") from exc


def _read_document(doc) -> tuple:
    """The checked parts of a parsed document, as _drawing takes them."""
    if type(doc) is not dict:
        raise ParseError("the document must be a JSON object")
    _check_keys(["the document"], [doc], _DOCUMENT_KEYS)
    if "format_version" not in doc:
        raise ParseError("missing format_version")
    version = doc["format_version"]
    _check_types(["format_version"], [version], int)
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format_version {version!r} is not "
                              f"supported, expected {FORMAT_VERSION}")
    for key in ("vertices", "darts", "rotations", "base_edges"):
        if key not in doc:
            raise ParseError(f"missing {key}")
    for key in ("darts", "rotations"):
        if type(doc[key]) is not dict:
            raise ParseError(f"{key} must be an object")
    for key in ("vertices", "base_edges"):
        if type(doc[key]) is not list:
            raise ParseError(f"{key} must be an array")
    vertex_ids, crossing = _read_vertices(doc["vertices"])
    dart_ids, twins, origins = _read_darts(doc["darts"])
    rotations = _read_rotations(doc["rotations"], vertex_ids)
    edge_ids, ends, paths = _read_base_edges(doc["base_edges"])
    metadata = doc.get("metadata", {})
    if type(metadata) is not dict:
        raise ParseError("metadata must be an object")
    return (crossing, dart_ids, twins, origins, rotations, edge_ids, ends,
            paths, metadata)


def _colons(doc: dict) -> int:
    """The colons that a checked document's text holds if no object in it
    repeats a key: one per key, plus those inside strings.  Outside the
    metadata every key and string is one the checks allow, and none of
    them holds a colon; ``json.dumps`` escapes no colon.  The checks
    leave every ``darts`` entry two members and every base edge three."""
    return (len(doc) + sum(map(len, doc["vertices"]))
            + 3 * len(doc["darts"]) + len(doc["rotations"])
            + 3 * len(doc["base_edges"])
            + json.dumps(doc.get("metadata", {})).count(":"))


def _parts(text: str) -> tuple:
    """The checked parts of the document the text holds.  A text whose
    colons, escaped ones included, the plain parse accounts for repeats
    no key (see the module docstring); any other text goes through the
    hooked parse, which raises what the loader raises.  The escapes
    ``\\u003a`` and ``\\u003A`` are counted only when the text holds a
    backslash.  Whether the ``darts`` table lists every dart of the
    rotations is for _drawing to check."""
    try:
        doc = json.loads(text)
        parts = _read_document(doc)
        colons = text.count(":")
        if "\\" in text:  # an escape starts with a backslash
            colons += text.count("\\u003a") + text.count("\\u003A")
        if _colons(doc) == colons:
            return parts
    except Exception:
        pass
    return _read_document(_hooked_parse(text))


def loads_drawing(text: str) -> Drawing:
    """Parse a JSON document into a validated Drawing.

    Parsing is strict (see the module docstring).  Each part of the
    document is checked whole, member by member only to name the first
    fault, and the lists it holds go to the planarization and the
    drawing as they are.

    Raises:
        ParseError: the text is not a well-formed document.
        VersionMismatch: the document declares another format version.
        InvariantViolation: the document describes an invalid drawing;
            the exception carries the validation diagnostics.
    """
    return _drawing(*_parts(text))


def _drawing(crossing, dart_ids, twins, origins, rotations, edge_ids, ends,
             paths, metadata) -> Drawing:
    """The validated Drawing of a document's checked parts: crossing
    vertices, dart ids, twins and origins, rotations, and base edge ids,
    endpoints and dart paths in document order, and the metadata."""
    try:
        plane = PlaneMultigraph(rotations, dict(zip(dart_ids, twins)))
        # the twin check refused every dart outside the rotations
        origin_of = plane._origin
        if list(map(origin_of.__getitem__, dart_ids)) != origins:
            for dart, origin in zip(dart_ids, origins):
                if origin_of[dart] != origin:
                    raise InvariantViolation(
                        f"dart {dart} declares origin {origin} but sits in "
                        f"the rotation of {origin_of[dart]}")
        if len(dart_ids) < len(origin_of):
            dart = min(origin_of.keys() - set(dart_ids))
            raise InvariantViolation(
                f"dart {dart} sits in the rotation of {origin_of[dart]} but "
                f"has no entry in darts")
        d = Drawing(plane, crossing, dict(zip(edge_ids, ends)),
                    dict(zip(edge_ids, paths)), metadata)
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

    The unknowns are numbered 0..n-1: the free vertices in the order of
    ``plane.vertices``, then one apex per face other than the pinned one,
    in face order, so apexes never share an id with a vertex.  The
    neighbour pairs are three columns, concatenated in this order:
    vertex to the head of each dart of its rotation, vertex to the apex
    of each face it is on, and apex to each vertex of its face's walk.
    Every row thus lists its neighbours rotation first, then faces in
    face order and walk order, and every sum over a row adds in that
    order.

    Raises:
        LayoutFailure: the planarization has no edge or is disconnected,
            so the solve has no unique solution, or the solve does not
            converge.
    """
    plane = d.plane
    walks = plane._walks
    if not walks or not plane.is_connected():
        raise LayoutFailure("the SVG layout needs a connected "
                            "planarization with at least one edge")
    lengths = list(map(len, walks))
    outer = lengths.index(max(lengths))
    origin, twin = plane._origin, plane._twin

    pinned: dict[int, tuple[float, float]] = {}
    corners = list(map(origin.__getitem__, walks[outer]))
    for idx, v in enumerate(corners):
        if v in pinned:
            continue
        angle = 2 * math.pi * idx / len(corners)
        pinned[v] = (math.cos(angle), math.sin(angle))

    free = [v for v in plane.vertices if v not in pinned]
    inner = walks[:outer] + walks[outer + 1:]
    k, n = len(free), len(free) + len(inner)
    if not n:
        return pinned
    # imported here so that reading and checking drawings never loads it
    import numpy as np

    # unknowns first, then the pinned vertices from n on
    slot = dict(zip(free, count()))
    slot.update(zip(pinned, count(n)))
    rots = list(map(plane._rotations.__getitem__, free))
    rows1 = np.repeat(np.arange(k), list(map(len, rots)))
    cols1 = np.fromiter(map(slot.__getitem__, map(
        origin.__getitem__, map(twin.__getitem__, chain.from_iterable(rots)))),
        dtype=np.intp, count=len(rows1))
    rows3 = np.repeat(np.arange(k, n), list(map(len, inner)))
    cols3 = np.fromiter(map(slot.__getitem__, map(
        origin.__getitem__, chain.from_iterable(inner))),
        dtype=np.intp, count=len(rows3))
    on_free = cols3 < k
    rows = np.concatenate([rows1, cols3[on_free], rows3])
    cols = np.concatenate([cols1, rows3[on_free], cols3])
    deg = np.bincount(rows, minlength=n).astype(float)
    fixed = cols >= n
    at = np.array(list(pinned.values()))[cols[fixed] - n]
    rhs_x = np.bincount(rows[fixed], weights=at[:, 0], minlength=n)
    rhs_y = np.bincount(rows[fixed], weights=at[:, 1], minlength=n)
    rows, cols = rows[~fixed], cols[~fixed]
    xs = _solve_laplacian(deg, rows, cols, rhs_x)
    ys = _solve_laplacian(deg, rows, cols, rhs_y)
    positions = dict(pinned)
    positions.update(zip(free, zip(xs[:k].tolist(), ys[:k].tolist())))
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
    at = {v: (pad + (x - lo_x) * scale, pad + (y - lo_y) * scale)
          for v, (x, y) in pos.items()}
    # each point is formatted once; paths and markers reuse the label
    label = {v: f"{x:.2f},{y:.2f}" for v, (x, y) in at.items()}

    origin, twin = d.plane._origin, d.plane._twin
    sk_ids = skeleton_edge_ids(d)
    parts = []
    for e in sorted(d.base_edges):
        path = d.edge_paths[e]
        coords = " ".join(map(label.__getitem__, chain(
            (origin[path[0]],), map(origin.__getitem__,
                                    map(twin.__getitem__, path)))))
        if e in sk_ids:
            style = 'stroke="#1a1a1a" stroke-width="2.0"'
        else:
            style = 'stroke="#c03028" stroke-width="1.0"'
        parts.append(f'<polyline points="{coords}" fill="none" {style}/>')
    for v in sorted(d.plane.vertices):
        cx, cy = label[v].split(",")
        if v in d.crossing_vertices:
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="1.5" '
                         f'fill="#c03028"/>')
        else:
            x, y = at[v]
            parts.append(f'<circle cx="{cx}" cy="{cy}" r="4.0" '
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
