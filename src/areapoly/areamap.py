"""Drawings of a triangulation and the exact area data they induce.

A drawing assigns rational coordinates to every vertex of a
combinatorial triangulation, with the corners forming a trapezoid:
``r - s`` must be a positive rational multiple of ``q - p``.  From a
drawing we read off the doubled signed area of each triangle and the
frame area ``doubled_area(p, s, q)``, which is the negative of the
doubled quadrilateral base triangle and stays negative for
counterclockwise frames; ``variety.area_values`` reads them all at once.

The symbolic counterpart pins the frame to ``p=(0,0)``, ``q=(1,0)``,
``s=(0,L)``, ``r=(t,L)`` and leaves interior vertices free, producing
one area polynomial per triangle in the gauge variables; the
parallelogram gauge pins the ratio too, ``r=(1,L)``.  Every such
polynomial is homogeneous of degree one when the vertical coordinates
and ``L`` carry weight one, which is what makes the eliminated area
relation homogeneous.

``normalize_map`` gives the exact affine map carrying an arbitrary
nondegenerate frame onto the unit frame ``p=(0,0), q=(1,0), s=(0,1)``;
areas rescale by its determinant, and the fourth corner lands at
``(t', 1)`` where ``t'`` is the trapezoid ratio.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Mapping

from .exact import clear_denominators, format_rational, parse_rational
from .poly import Monomial, Poly, Ring, _trusted, mono_mul
from .triangulation import (
    CORNERS,
    CombinatorialTriangulation,
    triangulation_from_json,
    triangulation_to_json,
)

__all__ = [
    "Point",
    "make_point",
    "doubled_area",
    "DegenerateFrameError",
    "trapezoid_ratio",
    "frame_problems",
    "Drawing",
    "GaugedAreas",
    "gauged_areas",
    "AffineMap",
    "normalize_map",
    "random_drawing",
    "random_integer_drawing",
    "points_from_json",
    "points_to_json",
]

Point = tuple[Fraction, Fraction]


class DegenerateFrameError(ValueError):
    """The corner frame is degenerate: ``p``, ``q``, ``s`` are collinear."""


def make_point(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def _cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def doubled_area(a: Point, b: Point, c: Point) -> Fraction:
    """Doubled signed area of a triangle, positive for counterclockwise.

    Only ``-`` and ``*`` are used, so ``int`` points give an ``int`` area
    and ``Fraction`` points a ``Fraction``.  The products are written out
    because ``variety.area_values`` calls this once per area of every
    integer sample drawing.  :func:`gauged_areas` sums its polynomials on
    its own.
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _integer_points(points: Mapping[str, Point]) -> tuple[int, dict[str, tuple[int, int]]]:
    """``D``, the lcm of the coordinate denominators, and the points times ``D``."""
    den, flat = clear_denominators([c for point in points.values() for c in point])
    coords = iter(flat)
    return den, dict(zip(points, zip(coords, coords)))


def trapezoid_ratio(points: Mapping[str, Point]) -> Fraction:
    """The scalar ``t`` with ``r - s == t * (q - p)``.

    Raises ``ValueError`` when the top and bottom sides are not parallel
    or the bottom side collapses; the ratio itself may be any rational,
    including zero for a frame whose top side collapses.
    """
    base = _sub(points["q"], points["p"])
    top = _sub(points["r"], points["s"])
    if base == (0, 0):
        raise ValueError("side from p to q has zero length")
    if _cross(base, top) != 0:
        raise ValueError("side from s to r is not parallel to the side from p to q")
    if base[0]:
        return top[0] / base[0]
    return top[1] / base[1]


def frame_problems(points: Mapping[str, Point]) -> list[str]:
    """What keeps the corners from being a counterclockwise trapezoid
    with a positive ratio; empty when they are one."""
    try:
        t = trapezoid_ratio(points)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    if t <= 0:
        problems.append(f"trapezoid ratio {format_rational(t)} is not positive")
    if doubled_area(points["p"], points["q"], points["s"]) <= 0:
        problems.append("corner frame is not counterclockwise")
    return problems


# ---------------------------------------------------------------------------
# numeric drawings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Drawing:
    triangulation: CombinatorialTriangulation
    points: Mapping[str, Point]

    def point(self, vertex: str) -> Point:
        try:
            return self.points[vertex]
        except KeyError:
            raise KeyError(f"vertex {vertex!r} has no coordinates") from None

    def validate(self) -> list[str]:
        """Frame problems; interior vertices may sit anywhere.  Every
        corner needs coordinates, also one the triangulation lacks."""
        problems = []
        for v in dict.fromkeys((*self.triangulation.vertices, *CORNERS)):
            if v not in self.points:
                problems.append(f"vertex {v!r} has no coordinates")
        return problems or frame_problems(self.points)

    def frame_area(self) -> Fraction:
        """Doubled area of the corner triangle ``(p, s, q)``; negative when
        the frame is counterclockwise."""
        return doubled_area(self.point("p"), self.point("s"), self.point("q"))

    def triangle_area(self, name: str) -> Fraction:
        t = self.triangulation.triangle(name)
        a, b, c = (self.point(v) for v in t.vertices)
        return doubled_area(a, b, c)


# ---------------------------------------------------------------------------
# symbolic gauge areas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaugedAreas:
    """Symbolic area data of a triangulation in the pinned frame."""

    triangulation: CombinatorialTriangulation
    ring: Ring
    frame: Poly
    opposite_frame: Poly
    areas: dict[str, Poly]

    def total(self) -> Poly:
        out = Poly.zero(self.ring)
        for poly in self.areas.values():
            out = out + poly
        return out


def gauged_areas(tri: CombinatorialTriangulation, ratio_fixed: bool = False) -> GaugedAreas:
    """Area polynomials in the gauge ring ``(t, lam, x_*, y_*)``.

    The frame polynomial is ``-lam`` and the triangle polynomials sum to
    ``lam * (1 + t)``, the doubled trapezoid area.  With ``ratio_fixed``
    the gauge pins ``r = (1, lam)`` and its ring ``(lam, x_*, y_*)`` has
    no ``t``: the parallelogram gauge.  Every coordinate is zero, one or a
    single gauge variable, so each doubled area ``a x b + b x c + c x a``
    is summed as integer terms on exponent tuples.
    """
    interior = (f"{c}_{v}" for v in tri.interior_vertices() for c in "xy")
    ring = Ring(("lam", *interior) if ratio_fixed else ("t", "lam", *interior))
    one, lam = ring.unit_monomial(), ring.var_monomial("lam")
    t = one if ratio_fixed else ring.var_monomial("t")
    coords = {"p": (None, None), "q": (one, None), "s": (None, lam), "r": (t, lam)}
    for v in tri.interior_vertices():
        coords[v] = (ring.var_monomial(f"x_{v}"), ring.var_monomial(f"y_{v}"))

    def area(*vertices: str) -> Poly:
        terms: dict[Monomial, int] = {}
        points = [coords[v] for v in vertices]
        for (ax, ay), (bx, by) in zip(points, points[1:] + points[:1]):
            for m, n, sign in ((ax, by, 1), (ay, bx, -1)):
                if m and n:
                    mono = mono_mul(m, n)
                    terms[mono] = terms.get(mono, 0) + sign
        return _trusted(ring, {m: Fraction(c) for m, c in terms.items() if c})

    areas = {triangle.name: area(*triangle.vertices) for triangle in tri.triangles}
    return GaugedAreas(tri, ring, area("p", "s", "q"), area("q", "s", "r"), areas)


# ---------------------------------------------------------------------------
# frame normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineMap:
    """Exact affine plane map ``(x, y) -> (xx*x + xy*y + x0, yx*x + yy*y + y0)``."""

    xx: Fraction
    xy: Fraction
    x0: Fraction
    yx: Fraction
    yy: Fraction
    y0: Fraction

    def apply(self, pt: Point) -> Point:
        x, y = pt
        return (self.xx * x + self.xy * y + self.x0, self.yx * x + self.yy * y + self.y0)

    @property
    def det(self) -> Fraction:
        return self.xx * self.yy - self.xy * self.yx


def normalize_map(p: Point, q: Point, s: Point) -> AffineMap:
    """The affine map sending ``p`` to (0,0), ``q`` to (1,0), ``s`` to (0,1).

    Its determinant is the reciprocal of ``doubled_area(p, q, s)``; a
    collinear frame raises :class:`DegenerateFrameError`.
    """
    a, c = _sub(q, p)
    b, d = _sub(s, p)
    det = a * d - b * c
    if det == 0:
        raise DegenerateFrameError("corners p, q, s are collinear")
    xx, xy = d / det, -b / det
    yx, yy = -c / det, a / det
    return AffineMap(
        xx=xx,
        xy=xy,
        x0=-(xx * p[0] + xy * p[1]),
        yx=yx,
        yy=yy,
        y0=-(yx * p[0] + yy * p[1]),
    )


# ---------------------------------------------------------------------------
# random drawings
# ---------------------------------------------------------------------------

_DENOMINATORS = (1, 2, 3, 4, 5, 8)
_SCALE = 120 * 120  # 120 clears every drawn denominator, the other 120 den(t) in r


def random_integer_drawing(
    tri: CombinatorialTriangulation,
    rng: random.Random,
    parallelogram: bool = False,
    positive_ratio: bool = False,
) -> tuple[int, dict[str, tuple[int, int]]]:
    """The one seeded sampler: ``D``, the lcm of the reduced denominators,
    and integer points ``(X, Y)`` with ``(X/D, Y/D)`` the coordinates of
    :func:`random_drawing`.  Each number is ``rng.randint(-9, 9)`` over
    ``rng.choice(_DENOMINATORS)``: ``p``, ``q``, ``s`` until not collinear
    (with ``positive_ratio``, counterclockwise); ``t`` until nonzero, then
    made positive with ``positive_ratio`` (one in parallelogram mode); interior vertices."""

    def draw() -> int:
        return rng.randint(-9, 9) * (_SCALE // rng.choice(_DENOMINATORS))

    while True:
        px, py, qx, qy, sx, sy = [draw() for _ in range(6)]
        orientation = (qx - px) * (sy - py) - (qy - py) * (sx - px)
        if orientation > 0 or (orientation and not positive_ratio):
            break
    num = den = int(parallelogram)
    while not num:
        num, den = rng.randint(-9, 9), rng.choice(_DENOMINATORS)
    num = abs(num) if positive_ratio else num
    rx, ry = sx + num * (qx - px) // den, sy + num * (qy - py) // den
    points = {"p": (px, py), "q": (qx, qy), "r": (rx, ry), "s": (sx, sy)}
    for v in tri.interior_vertices():
        points[v] = (draw(), draw())
    common = gcd(_SCALE, *(c for point in points.values() for c in point))
    return _SCALE // common, {v: (x // common, y // common) for v, (x, y) in points.items()}


def random_drawing(
    tri: CombinatorialTriangulation,
    rng: random.Random,
    parallelogram: bool = False,
    positive_ratio: bool = False,
) -> Drawing:
    """The points of :func:`random_integer_drawing` over its ``D``: integer numerators
    in ``[-9, 9]`` over ``{1, 2, 3, 4, 5, 8}``, except ``r = s + t*(q - p)`` for such a
    ``t``.  Triangles may overlap; with ``positive_ratio`` the drawing passes validation."""
    d, ints = random_integer_drawing(tri, rng, parallelogram, positive_ratio)
    return Drawing(tri, {v: (Fraction(x, d), Fraction(y, d)) for v, (x, y) in ints.items()})


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def points_to_json(points: Mapping[str, Point]) -> dict:
    return {v: [format_rational(x), format_rational(y)] for v, (x, y) in points.items()}


def points_from_json(raw: Mapping) -> dict[str, Point]:
    """Vertex names mapped to pairs of exact rational coordinate strings."""
    if not isinstance(raw, Mapping):
        raise ValueError("points must map vertex names to coordinate pairs")
    points = {}
    for v, xy in raw.items():
        if not isinstance(xy, list) or len(xy) != 2:
            raise ValueError(f"point {v!r} must be a list of two coordinates")
        points[str(v)] = (parse_rational(str(xy[0])), parse_rational(str(xy[1])))
    return points


def drawing_to_json(drawing: Drawing) -> dict:
    return {
        "triangulation": triangulation_to_json(drawing.triangulation),
        "points": points_to_json(drawing.points),
    }


def drawing_from_json(data: Mapping) -> Drawing:
    tri = triangulation_from_json(data["triangulation"])
    return Drawing(tri, points_from_json(data["points"]))


def save_drawing(drawing: Drawing, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(drawing_to_json(drawing), fh, indent=2)
        fh.write("\n")
