"""2-adic colorings, rainbow triangles, and equidissection obstructions.

Every point of the plane gets one of three colors from the 2-adic
valuations of its coordinates:

- ``A`` when ``val2(x) <= 0`` and ``val2(x) <= val2(y)``,
- ``B`` when ``val2(y) <= 0`` and ``val2(y) < val2(x)``,
- ``C`` otherwise.

Color is taken after normalizing the frame, so the corners always come
out ``p -> C``, ``q -> A``, ``s -> B``, and ``r`` lands on ``A`` or
``B`` depending on whether the trapezoid ratio has nonpositive 2-adic
valuation.  Three collinear points never show all three colors, and a
rainbow triangle (one vertex of each color) has a doubled area whose
valuation is at most the valuation of the frame area.  Counting
boundary color changes forces an odd number of rainbow triangles in
every valid dissection, which is the engine behind the equidissection
obstruction: an equal-area dissection into ``n`` triangles needs
``val2(n) >= val2(1 + ratio)``, so for parallelograms ``n`` must be
even.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .areamap import (
    DegenerateFrameError,
    Drawing,
    Point,
    doubled_area,
    _integer_points,
)
from .dissection import GeometricDissection
from .exact import format_rational, val2
from .triangulation import CORNERS, Triangle

__all__ = [
    "COLORS",
    "ColoringError",
    "color_point",
    "vertex_colors",
    "color_dissection",
    "RainbowCertificate",
    "rainbow_certificate",
    "drawing_certificate",
    "EquidissectionReport",
    "equidissection_report",
]

COLORS = ("A", "B", "C")


class ColoringError(RuntimeError):
    """A coloring certificate failed to materialize on a valid dissection."""


def color_point(point: Point) -> str:
    """Three-color a point by the 2-adic size of its coordinates."""
    vx, vy = val2(point[0]), val2(point[1])
    if vx <= 0 and vx <= vy:
        return "A"
    if vy <= 0 and vy < vx:
        return "B"
    return "C"


def _normalized(scaled: Mapping[str, tuple[int, int]]) -> dict[str, Point]:
    """Normalized coordinates of integer points, as in :func:`vertex_colors`."""
    p, q, s = scaled["p"], scaled["q"], scaled["s"]
    det = doubled_area(p, q, s)
    if det == 0:
        raise DegenerateFrameError("corners p, q, s are collinear")
    return {
        v: (Fraction(doubled_area(p, P, s), det), Fraction(doubled_area(p, q, P), det))
        for v, P in scaled.items()
    }


def vertex_colors(points: Mapping[str, Point]) -> dict[str, str]:
    """Colors of every point, computed after normalizing the frame.

    The normalized coordinates of a point ``P`` (those that
    :func:`~areapoly.areamap.normalize_map` gives) come from Cramer's rule,
    ``x = doubled_area(p, P, s) / det`` and ``y = doubled_area(p, q, P) / det``
    with ``det = doubled_area(p, q, s)``, on the points scaled to integers by
    their common denominator, which cancels in each ratio.  A collinear
    frame raises :class:`~areapoly.areamap.DegenerateFrameError`.
    """
    _, scaled = _integer_points(points)
    return {v: color_point(P) for v, P in _normalized(scaled).items()}


def color_dissection(dissection: GeometricDissection) -> dict[str, str]:
    """Vertex colors of a dissection, computed on normalized coordinates."""
    return vertex_colors(dissection.points)


@dataclass(frozen=True)
class RainbowCertificate:
    """Evidence that a drawn triangulation contains rainbow triangles.

    Valuations are of raw doubled areas; the frame bound says each
    rainbow triangle satisfies ``val2(area) <= val2(frame_area)``,
    which in particular makes its area nonzero.
    """

    ratio: Fraction
    vertex_colors: dict[str, str]
    rainbow: tuple[str, ...]
    frame_valuation: object
    area_valuations: dict[str, object]

    @property
    def corner_colors(self) -> tuple[str, str, str, str]:
        return tuple(self.vertex_colors[c] for c in CORNERS)

    @property
    def boundary(self) -> str:
        return "".join(self.corner_colors)


def _certify(
    points: Mapping[str, Point], triangles: tuple[Triangle, ...]
) -> RainbowCertificate:
    """Color the vertices, find the rainbow triangles, and check every
    promise the 2-adic argument makes about them.

    Works for any assignment of coordinates to a combinatorial
    triangulation whose corners form a positive-ratio trapezoid; the
    parity and valuation facts do not need the triangles to tile the
    quadrilateral, only the corner colors and the per-triangle color
    count.
    """
    den, scaled = _integer_points(points)
    normalized = _normalized(scaled)
    # r - s = t * (q - p) puts r at (t, 1) in the normalized frame.
    ratio = normalized["r"][0]
    colors = {v: color_point(P) for v, P in normalized.items()}
    expected = {"p": "C", "q": "A", "s": "B"}
    for corner, want in expected.items():
        if colors[corner] != want:
            raise ColoringError(
                f"normalized corner {corner} has color {colors[corner]}, expected {want}"
            )
    if colors["r"] not in ("A", "B"):
        raise ColoringError(f"normalized corner r has color {colors['r']}, expected A or B")
    rainbow = [
        t for t in triangles if {colors[v] for v in t.vertices} == set(COLORS)
    ]
    if not rainbow:
        raise ColoringError("no rainbow triangle found")
    if len(rainbow) % 2 == 0:
        raise ColoringError(
            f"rainbow triangle count {len(rainbow)} is even; parity argument violated"
        )
    # A doubled area of the integer points is D^2 times the true one.
    shift = 2 * val2(den)
    frame_valuation = val2(doubled_area(scaled["p"], scaled["s"], scaled["q"])) - shift
    area_valuations = {}
    for triangle in rainbow:
        area = doubled_area(*(scaled[v] for v in triangle.vertices))
        if area == 0:
            raise ColoringError(f"rainbow triangle {triangle.name} is degenerate")
        v = val2(area) - shift
        if not v <= frame_valuation:
            raise ColoringError(
                f"rainbow triangle {triangle.name} has val2(area) = {v} "
                f"> val2(frame) = {frame_valuation}"
            )
        area_valuations[triangle.name] = v
    return RainbowCertificate(
        ratio=ratio,
        vertex_colors=colors,
        rainbow=tuple(t.name for t in rainbow),
        frame_valuation=frame_valuation,
        area_valuations=area_valuations,
    )


def rainbow_certificate(dissection: GeometricDissection) -> RainbowCertificate:
    """Locate the rainbow triangles of a valid dissection and check the
    facts the 2-adic argument promises about them.

    Raises :class:`ColoringError` if no rainbow triangle exists, if
    their number is even, or if one of them violates the valuation
    bound; none of these can happen for a valid dissection, so an error
    here means the input slipped past validation.
    """
    dissection.require_valid()
    return _certify(dissection.points, dissection.triangles)


def drawing_certificate(drawing: Drawing) -> RainbowCertificate:
    """Rainbow certificate for an arbitrary drawing of a triangulation.

    Drawings may place triangles degenerately or on top of each other;
    the parity of rainbow triangles and the valuation bound hold
    anyway, because both are statements about vertex colors rather
    than about the triangles tiling anything.  Only the frame must be
    honest: corners forming a positive-ratio trapezoid with nonzero
    area; otherwise :class:`ColoringError` lists the frame problems.
    """
    problems = drawing.validate()
    if problems:
        raise ColoringError("; ".join(problems))
    return _certify(drawing.points, drawing.triangulation.triangles)


@dataclass(frozen=True)
class EquidissectionReport:
    """What the rainbow certificate says about equal-area dissections.

    For an equal-area dissection into ``count`` pieces of a trapezoid
    with normalized doubled area ``1 + ratio``, the certificate forces
    ``val2(count) >= required_valuation``.  ``admissible`` records that
    check for the dissection at hand (None when areas are unequal).
    """

    count: int
    equal_areas: bool
    ratio: Fraction
    required_valuation: object
    count_valuation: object
    admissible: bool | None
    certificate: RainbowCertificate

    def summary_lines(self) -> list[str]:
        lines = [
            f"triangles: {self.count}",
            f"trapezoid ratio: {format_rational(self.ratio)}",
            f"equal areas: {'yes' if self.equal_areas else 'no'}",
            f"rainbow triangles: {', '.join(self.certificate.rainbow)}",
            f"required val2(count) for equal areas: {self.required_valuation}",
            f"val2(count): {self.count_valuation}",
        ]
        if self.admissible is not None:
            lines.append(f"count admissible: {'yes' if self.admissible else 'no'}")
        return lines


def equidissection_report(dissection: GeometricDissection) -> EquidissectionReport:
    """Combine the rainbow certificate with the equal-area counting bound."""
    certificate = rainbow_certificate(dissection)
    areas = [
        doubled_area(*dissection.triangle_points(t)) for t in dissection.triangles
    ]
    equal = len(set(areas)) == 1
    count = len(areas)
    required = val2(1 + certificate.ratio)
    count_val = val2(Fraction(count))
    admissible = (count_val >= required) if equal else None
    return EquidissectionReport(
        count=count,
        equal_areas=equal,
        ratio=certificate.ratio,
        required_valuation=required,
        count_valuation=count_val,
        admissible=admissible,
        certificate=certificate,
    )
