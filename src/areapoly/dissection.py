"""Geometric dissections of a trapezoid and their poofed triangulations.

A dissection lists rational points and counterclockwise triangles that
tile the quadrilateral ``p q r s`` exactly.  Unlike a combinatorial
triangulation, a dissection may have T-vertices: a vertex of one
triangle sitting in the interior of another triangle's edge, or on a
side of the quadrilateral.

Validation is exact: the corner frame must be a counterclockwise
trapezoid, triangles must be counterclockwise and nondegenerate, lie
inside the quadrilateral, have pairwise disjoint interiors (separating
axis test over edge normals), and their doubled areas must sum to the
doubled area of the quadrilateral.  Once the frame is known to be
honest, every test runs in ``int`` arithmetic on the points scaled by
their common denominator, which keeps every sign and equality.  The
overlap test compares every pair of triangles, so a dissection with
more than ``MAX_DISSECTION_TRIANGLES`` triangles is refused up front.

``poof`` converts a valid dissection into a combinatorial triangulation
of the quadrilateral by inserting zero-area fan triangles along every
subdivided edge: one fan per triangle edge carrying other vertices in
its interior, and one fan per subdivided side of the quadrilateral.
The fans are degenerate by construction, so they contribute zero to
every area vector while making all edge incidences match up.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .areamap import (
    Drawing,
    Point,
    doubled_area,
    frame_problems,
    _integer_points,
    points_from_json,
    points_to_json,
)
from .exact import format_rational
from .groebner import ResourceGuardError
from .triangulation import (
    CORNERS,
    CombinatorialTriangulation,
    Triangle,
    triangles_from_json,
    triangles_to_json,
)

__all__ = [
    "MAX_DISSECTION_TRIANGLES",
    "GeometricDissection",
    "InvalidDissectionError",
    "validate_dissection",
    "poof",
    "dissection_from_json",
    "dissection_to_json",
]


# Validation compares every pair of triangles; a grid of this many
# triangles validates in about 1.3 s (Python 3.11, 2-vCPU x86-64 machine).
MAX_DISSECTION_TRIANGLES = 1000


class InvalidDissectionError(ValueError):
    """Raised when a dissection fails validation; carries the problems."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class GeometricDissection:
    points: Mapping[str, Point]
    triangles: tuple[Triangle, ...]

    def point(self, vertex: str) -> Point:
        try:
            return self.points[vertex]
        except KeyError:
            raise KeyError(f"vertex {vertex!r} has no coordinates") from None

    def triangle_points(self, triangle: Triangle) -> tuple[Point, Point, Point]:
        return tuple(self.point(v) for v in triangle.vertices)

    def validate(self) -> list[str]:
        return validate_dissection(self)

    def require_valid(self) -> "GeometricDissection":
        problems = self.validate()
        if problems:
            raise InvalidDissectionError(problems)
        return self


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _projection_interval(
    points: Sequence[tuple[int, int]], axis: tuple[int, int]
) -> tuple[int, int]:
    values = [axis[0] * x + axis[1] * y for x, y in points]
    return min(values), max(values)


def _interiors_disjoint(a: Sequence[tuple[int, int]], b: Sequence[tuple[int, int]]) -> bool:
    """Separating axis test for two triangles, exact on integer points.

    Convex interiors are disjoint exactly when some edge normal of one
    triangle weakly separates the vertex projections, so touching along
    edges or vertices still counts as disjoint.
    """
    for tri in (a, b):
        for i in range(3):
            x1, y1 = tri[i]
            x2, y2 = tri[(i + 1) % 3]
            axis = (y2 - y1, x1 - x2)
            lo_a, hi_a = _projection_interval(a, axis)
            lo_b, hi_b = _projection_interval(b, axis)
            if hi_a <= lo_b or hi_b <= lo_a:
                return True
    return False


def validate_dissection(dissection: GeometricDissection) -> list[str]:
    """Every problem found, empty when the dissection is valid.  Raises
    :class:`ResourceGuardError` above ``MAX_DISSECTION_TRIANGLES`` triangles."""
    if len(dissection.triangles) > MAX_DISSECTION_TRIANGLES:
        raise ResourceGuardError(
            f"dissection has {len(dissection.triangles)} triangles, "
            f"more than {MAX_DISSECTION_TRIANGLES}"
        )
    problems: list[str] = []
    for corner in CORNERS:
        if corner not in dissection.points:
            problems.append(f"missing corner point {corner!r}")
    names = [t.name for t in dissection.triangles]
    if len(set(names)) != len(names):
        problems.append("duplicate triangle names")
    if not dissection.triangles:
        problems.append("no triangles")
    for t in dissection.triangles:
        if len(set(t.vertices)) != 3:
            problems.append(f"triangle {t.name} repeats a vertex")
        for v in t.vertices:
            if v not in dissection.points:
                problems.append(f"triangle {t.name} uses unknown vertex {v!r}")
    if problems:
        return problems

    # The vertices at each point, in point order.  Each vertex in turn
    # leaves the front of its group and pairs with those still in it, so
    # the pairs come in point order, in time linear in the points plus
    # the pairs reported.
    at: dict[Point, list[str]] = {}
    for v, a in dissection.points.items():
        at.setdefault(a, []).append(v)
    for u, a in dissection.points.items():
        later = at[a]
        del later[0]
        for v in later:
            problems.append(
                f"vertices {u!r} and {v!r} share the point "
                f"({format_rational(a[0])}, {format_rational(a[1])})"
            )
    used = {v for t in dissection.triangles for v in t.vertices}
    for v in dissection.points:
        if v not in used:
            problems.append(f"vertex {v!r} belongs to no triangle")

    problems += frame_problems(dissection.points)
    if problems:
        return problems

    # Every remaining test is a sign or an equality of doubled areas or of
    # projections, unchanged when all points are scaled by D > 0, so it
    # runs on the integer points D * (x, y).
    den, points = _integer_points(dissection.points)
    triangles = [tuple(points[v] for v in t.vertices) for t in dissection.triangles]
    areas = [doubled_area(*corners) for corners in triangles]
    for t, area in zip(dissection.triangles, areas):
        if area == 0:
            problems.append(f"triangle {t.name} is degenerate")
        elif area < 0:
            problems.append(f"triangle {t.name} is clockwise")
    if problems:
        return problems

    quad = p, q, r, s = [points[c] for c in CORNERS]
    for t in dissection.triangles:
        for v in t.vertices:
            pt = points[v]
            for i in range(4):
                if doubled_area(quad[i], quad[(i + 1) % 4], pt) < 0:
                    problems.append(f"vertex {v!r} lies outside the quadrilateral")
                    break
            else:
                continue
            break

    for (ta, a), (tb, b) in combinations(zip(dissection.triangles, triangles), 2):
        if not _interiors_disjoint(a, b):
            problems.append(f"triangles {ta.name} and {tb.name} overlap")

    total = sum(areas)
    quad_area = doubled_area(p, q, r) + doubled_area(p, r, s)
    if total != quad_area:
        scale = den * den
        problems.append(
            f"triangle areas sum to {format_rational(Fraction(total, scale))}, "
            f"quadrilateral has {format_rational(Fraction(quad_area, scale))}"
        )
    return problems


# ---------------------------------------------------------------------------
# poofing
# ---------------------------------------------------------------------------


def _vertices_on_segment(
    points: Mapping[str, tuple[int, int]], by_x: list[tuple[int, int, str]], a: str, b: str
) -> list[str]:
    """Vertex ids strictly inside segment ``a b``, ordered from a to b: of
    the sorted ``(x, y, vertex)`` of the integer ``points``, only those in
    the segment's x-range are tested."""
    pa, pb = points[a], points[b]
    ab = (pb[0] - pa[0], pb[1] - pa[1])
    length = ab[0] * ab[0] + ab[1] * ab[1]
    lo = bisect_left(by_x, (min(pa[0], pb[0]),))
    hi = bisect_left(by_x, (max(pa[0], pb[0]) + 1,))
    found = []
    for x, y, v in by_x[lo:hi]:
        if doubled_area(pa, pb, (x, y)) == 0:
            along = ab[0] * (x - pa[0]) + ab[1] * (y - pa[1])
            if 0 < along < length:
                found.append((along, v))
    return [v for _, v in sorted(found)]


def _fresh_fan_names(existing: set[str]) -> Iterator[str]:
    i = 1
    while True:
        name = f"P{i}"
        if name not in existing:
            yield name
        i += 1


def poof(dissection: GeometricDissection) -> tuple[CombinatorialTriangulation, Drawing]:
    """Fill every subdivided edge of a valid dissection with zero-area fans.

    Returns the resulting combinatorial triangulation (original
    triangles first, in input order, then fan triangles named ``P1,
    P2, ...``) together with the drawing that places it on the original
    points.  Fans come in two shapes:

    - for a triangle edge ``a -> b`` carrying interior vertices
      ``w1 .. wj``, the triangles ``(a, w1, w2), ..., (a, wj, b)``;
    - for a quadrilateral side ``c1 -> c2`` carrying interior vertices
      ``w1 .. wk``, the triangles ``(c1, c2, wk), (c1, wk, w(k-1)),
      ..., (c1, w2, w1)``, so the side itself becomes a single edge.
    """
    dissection.require_valid()
    # Collinearity and order along a segment keep under the scale D > 0.
    points = _integer_points(dissection.points)[1]
    on_segment = partial(
        _vertices_on_segment, points, sorted((x, y, v) for v, (x, y) in points.items())
    )
    triangles: list[Triangle] = list(dissection.triangles)
    fresh = _fresh_fan_names({t.name for t in dissection.triangles})

    for t in dissection.triangles:
        for a, b in t.directed_edges():
            inside = on_segment(a, b)
            if not inside:
                continue
            path = [a, *inside, b]
            for i in range(1, len(path) - 1):
                triangles.append(Triangle(next(fresh), (a, path[i], path[i + 1])))

    for i in range(4):
        c1, c2 = CORNERS[i], CORNERS[(i + 1) % 4]
        inside = on_segment(c1, c2)
        if not inside:
            continue
        chain = [c2, *reversed(inside)]
        for j in range(len(chain) - 1):
            triangles.append(Triangle(next(fresh), (c1, chain[j], chain[j + 1])))

    order = list(CORNERS) + [v for v in dissection.points if v not in CORNERS]
    tri = CombinatorialTriangulation(vertices=tuple(order), triangles=tuple(triangles))
    return tri, Drawing(tri, dict(dissection.points))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def dissection_to_json(dissection: GeometricDissection) -> dict:
    return {
        "points": points_to_json(dissection.points),
        "triangles": triangles_to_json(dissection.triangles),
    }


def dissection_from_json(data: Mapping) -> GeometricDissection:
    """Build from a JSON object; triangle names default to ``B1, B2, ...``."""
    try:
        raw_points = data["points"]
        raw_triangles = data["triangles"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"dissection JSON needs 'points' and 'triangles': {exc}") from exc
    return GeometricDissection(
        points=points_from_json(raw_points), triangles=triangles_from_json(raw_triangles)
    )


def save_dissection(dissection: GeometricDissection, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(dissection_to_json(dissection), fh, indent=2)
        fh.write("\n")
