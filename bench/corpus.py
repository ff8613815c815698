"""Seeded inputs for the benchmark, with answers known from construction.

Besides the package's own theta families and the dodecahedron, the
benchmark needs skeletons that are not theta-shaped.  They are grown by
face-local splits that keep every face at the target length, so filling
their faces with the chord patterns yields optimal drawings:

- pentagulations start from the dodecahedron and repeatedly turn one
  pentagon into three: a 2-edge path between two corners at distance 2
  cuts off a quadrilateral, and a 3-edge path across that quadrilateral
  cuts it into two pentagons (3 new vertices, 5 new edges);
- hexangulations start from ``theta_hexangulation(3)`` and repeatedly
  cut one hexagon in two with a 3-edge path between opposite corners
  (2 new vertices, 3 new edges).

New edges always end at a new vertex, so the skeletons stay simple and
``PlaneMultigraph.from_faces`` can build them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from optiplanar.drawing import Drawing
from optiplanar.generate import dodecahedron, theta_hexangulation
from optiplanar.plane import PlaneMultigraph


def _face_cycles(g: PlaneMultigraph) -> list[list[int]]:
    return [list(w.vertices) for w in g.faces()]


def _rotated(face: list[int], rng: random.Random) -> list[int]:
    r = rng.randrange(len(face))
    return face[r:] + face[:r]


def split_pentagulation(n: int, rng: random.Random) -> PlaneMultigraph:
    """A simple pentagulation on n vertices grown from the dodecahedron.

    n must be 20 + 3j for some j >= 0.
    """
    if n < 20 or (n - 20) % 3:
        raise ValueError(f"a split pentagulation has 20 + 3j vertices, "
                         f"not {n}")
    faces = _face_cycles(dodecahedron())
    nxt = 20
    while nxt < n:
        c = _rotated(faces.pop(rng.randrange(len(faces))), rng)
        a, b, x = nxt, nxt + 1, nxt + 2
        nxt += 3
        # path c0-a-c2 leaves the pentagon (c2 c3 c4 c0 a) and the
        # quadrilateral (c0 c1 c2 a); path c1-b-x-a splits the latter
        faces.append([c[2], c[3], c[4], c[0], a])
        faces.append([c[1], c[2], a, x, b])
        faces.append([a, c[0], c[1], b, x])
    return PlaneMultigraph.from_faces(faces)


def split_hexangulation(n: int, rng: random.Random) -> PlaneMultigraph:
    """A simple hexangulation on n vertices grown from a 3-path theta.

    n must be 8 + 2j for some j >= 0.
    """
    if n < 8 or n % 2:
        raise ValueError(f"a split hexangulation has 8 + 2j vertices, "
                         f"not {n}")
    g = theta_hexangulation(3)
    faces = _face_cycles(g)
    nxt = g.n
    while nxt < n:
        c = _rotated(faces.pop(rng.randrange(len(faces))), rng)
        a, b = nxt, nxt + 1
        nxt += 2
        faces.append([c[0], c[1], c[2], c[3], b, a])
        faces.append([c[3], c[4], c[5], c[0], a, b])
    return PlaneMultigraph.from_faces(faces)


def density_bound(k: int, n: int) -> Fraction:
    """Edge count of an optimal k-planar graph on n vertices.

    Written out here rather than taken from ``characterize`` so that the
    expected answers do not come from the verifier's code.
    """
    return Fraction(5 * n - 10) if k == 2 else Fraction(11, 2) * n - 11


def parallel_classes(d: Drawing) -> Counter:
    """Base edges grouped by their unordered endpoint pair."""
    return Counter(tuple(sorted(uv)) for uv in d.base_edges.values())


def homotopy_pairs(d: Drawing) -> int:
    """Curves ``homotopic_duplicates`` closes: parallel pairs plus loops."""
    pairs = sum(c * (c - 1) // 2 for c in parallel_classes(d).values())
    loops = sum(1 for u, v in d.base_edges.values() if u == v)
    return pairs + loops


@dataclass
class DocFacts:
    """Input facts of one document an operation works on."""
    name: str
    family: str
    k: int
    n: int
    m: int
    crossings: int
    bytes: int
    max_parallel: int

    @classmethod
    def of(cls, name: str, family: str, k: int, d: Drawing,
           text: str) -> "DocFacts":
        return cls(name, family, k, d.n, d.m, len(d.crossing_vertices),
                   len(text.encode("utf-8")),
                   max(parallel_classes(d).values(), default=0))
