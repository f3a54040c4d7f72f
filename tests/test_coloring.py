"""2-adic coloring, rainbow certificates, equidissection reports."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from areapoly.areamap import (
    DegenerateFrameError,
    Drawing,
    doubled_area,
    make_point,
    normalize_map,
    random_drawing,
    trapezoid_ratio,
)
from areapoly.coloring import (
    ColoringError,
    RainbowCertificate,
    color_dissection,
    color_point,
    drawing_certificate,
    equidissection_report,
    rainbow_certificate,
    vertex_colors,
)
from areapoly.corpus import corpus_dissection, corpus_names, relation_corpus
from areapoly.dissection import GeometricDissection
from areapoly.exact import val2
from areapoly.triangulation import Triangle, diagonal_family

GOLDEN_COLORS = {
    "diag2": {"p": "C", "q": "A", "r": "A", "s": "B"},
    "fan4": {"p": "C", "q": "A", "r": "A", "s": "B", "c": "A"},
    "eighths": {
        "p": "C", "q": "A", "r": "A", "s": "B", "c": "A",
        "mpq": "A", "mqr": "B", "mrs": "A", "msp": "B",
    },
    "unequal3": {"p": "C", "q": "A", "r": "A", "s": "B", "m": "A"},
    "tvertex": {"p": "C", "q": "A", "r": "A", "s": "B", "m": "A"},
}

# The certificates as ``repr`` text, on each corpus dissection and on its
# image under ``affine_image``, which keeps the colors and raises every
# valuation by one (the map's determinant is 2/21).
GOLDEN_CERTIFICATES = {
    "diag2": (
        "rainbow=('B2',), frame_valuation=0, area_valuations={'B2': 0})",
        "rainbow=('B2',), frame_valuation=1, area_valuations={'B2': 1})",
    ),
    "fan4": (
        "rainbow=('B4',), frame_valuation=0, area_valuations={'B4': -1})",
        "rainbow=('B4',), frame_valuation=1, area_valuations={'B4': 0})",
    ),
    "eighths": (
        "rainbow=('B8',), frame_valuation=0, area_valuations={'B8': -2})",
        "rainbow=('B8',), frame_valuation=1, area_valuations={'B8': -1})",
    ),
    "unequal3": (
        "rainbow=('B3',), frame_valuation=0, area_valuations={'B3': -1})",
        "rainbow=('B3',), frame_valuation=1, area_valuations={'B3': 0})",
    ),
    "tvertex": (
        "rainbow=('B3',), frame_valuation=0, area_valuations={'B3': 0})",
        "rainbow=('B3',), frame_valuation=1, area_valuations={'B3': 1})",
    ),
}

def summary(count: int, count_valuation: int, rainbow: str, equal: bool) -> list[str]:
    lines = [
        f"triangles: {count}",
        "trapezoid ratio: 1",
        f"equal areas: {'yes' if equal else 'no'}",
        f"rainbow triangles: {rainbow}",
        "required val2(count) for equal areas: 1",
        f"val2(count): {count_valuation}",
    ]
    return lines + ["count admissible: yes"] if equal else lines


GOLDEN_SUMMARIES = {
    "diag2": summary(2, 1, "B2", True),
    "fan4": summary(4, 2, "B4", True),
    "eighths": summary(8, 3, "B8", True),
    "unequal3": summary(3, 0, "B3", False),
    "tvertex": summary(3, 0, "B3", False),
}


def affine_image(dissection: GeometricDissection) -> GeometricDissection:
    """The dissection under an orientation-preserving map with non-integer
    coefficients, which keeps every frame a positive-ratio trapezoid."""
    points = {
        v: (x / 3 + y / 5 + Fraction(1, 2), 2 * y / 7 - Fraction(1, 4))
        for v, (x, y) in dissection.points.items()
    }
    return GeometricDissection(points=points, triangles=dissection.triangles)


def reference_certificate(drawing: Drawing) -> RainbowCertificate:
    """The certificate rebuilt from ``normalize_map`` and ``color_point``."""
    points = drawing.points
    mapper = normalize_map(points["p"], points["q"], points["s"])
    colors = {v: color_point(mapper.apply(pt)) for v, pt in points.items()}
    triangles = drawing.triangulation.triangles
    rainbow = tuple(
        t.name for t in triangles if {colors[v] for v in t.vertices} == {"A", "B", "C"}
    )
    return RainbowCertificate(
        ratio=trapezoid_ratio(points),
        vertex_colors=colors,
        rainbow=rainbow,
        frame_valuation=val2(doubled_area(points["p"], points["s"], points["q"])),
        area_valuations={
            t.name: val2(doubled_area(*(points[v] for v in t.vertices)))
            for t in triangles
            if t.name in rainbow
        },
    )

coords = st.fractions(min_value=-8, max_value=8, max_denominator=16)
rational_points = st.tuples(coords, coords)


class TestColorPoint:
    @pytest.mark.parametrize(
        "point, color",
        [
            ((0, 0), "C"),
            ((2, 4), "C"),
            ((1, 0), "A"),
            ((Fraction(1, 2), Fraction(1, 3)), "A"),
            ((Fraction(1, 2), Fraction(1, 2)), "A"),
            ((Fraction(1, 3), Fraction(1, 5)), "A"),
            ((0, 1), "B"),
            ((2, Fraction(1, 2)), "B"),
            ((4, 3), "B"),
        ],
    )
    def test_frozen_colors(self, point, color):
        assert color_point(make_point(*point)) == color

    @given(rational_points, rational_points, rational_points)
    @settings(max_examples=300, deadline=None)
    def test_rainbow_triples_have_small_odd_area(self, a, b, c):
        colors = {color_point(a), color_point(b), color_point(c)}
        if colors == {"A", "B", "C"}:
            area = doubled_area(a, b, c)
            assert area != 0
            assert val2(area) <= 0

    @given(rational_points, rational_points, st.fractions(min_value=-4, max_value=4, max_denominator=8))
    @settings(max_examples=200, deadline=None)
    def test_collinear_points_never_rainbow(self, a, b, k):
        c = (a[0] + k * (b[0] - a[0]), a[1] + k * (b[1] - a[1]))
        colors = {color_point(a), color_point(b), color_point(c)}
        assert colors != {"A", "B", "C"}


class TestDissectionColoring:
    def test_colors_are_normalization_invariant(self):
        reference = color_dissection(corpus_dissection("fan4"))
        scaled = GeometricDissection(
            points={
                v: (3 * x + 7, 3 * y - 2)
                for v, (x, y) in corpus_dissection("fan4").points.items()
            },
            triangles=corpus_dissection("fan4").triangles,
        )
        assert color_dissection(scaled) == reference

    @pytest.mark.parametrize(
        "name, rainbow",
        [
            ("diag2", ("B2",)),
            ("fan4", ("B4",)),
            ("eighths", ("B8",)),
            ("unequal3", ("B3",)),
            ("tvertex", ("B3",)),
        ],
    )
    def test_frozen_rainbow_triangles(self, name, rainbow):
        certificate = rainbow_certificate(corpus_dissection(name))
        assert certificate.rainbow == rainbow
        assert certificate.corner_colors == ("C", "A", "A", "B")
        assert certificate.boundary == "CAAB"

    @pytest.mark.parametrize("name", corpus_names())
    def test_valuation_bound(self, name):
        certificate = rainbow_certificate(corpus_dissection(name))
        assert len(certificate.rainbow) % 2 == 1
        for value in certificate.area_valuations.values():
            assert value <= certificate.frame_valuation

    def test_color_dissection_matches_certificate(self):
        dissection = corpus_dissection("fan4")
        colors = color_dissection(dissection)
        certificate = rainbow_certificate(dissection)
        assert certificate.vertex_colors == colors
        assert certificate.rainbow == ("B4",)
        (b4,) = [t for t in dissection.triangles if t.name == "B4"]
        assert {colors[v] for v in b4.vertices} == {"A", "B", "C"}


class TestGoldenColorings:
    """Colors, certificates and reports pinned byte for byte."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_vertex_colors(self, name):
        dissection = corpus_dissection(name)
        assert vertex_colors(dissection.points) == GOLDEN_COLORS[name]
        assert vertex_colors(affine_image(dissection).points) == GOLDEN_COLORS[name]

    @pytest.mark.parametrize("name", corpus_names())
    def test_rainbow_certificates(self, name):
        head = (
            f"RainbowCertificate(ratio=Fraction(1, 1), vertex_colors={GOLDEN_COLORS[name]!r}, "
        )
        plain, image = GOLDEN_CERTIFICATES[name]
        dissection = corpus_dissection(name)
        assert repr(rainbow_certificate(dissection)) == head + plain
        assert repr(rainbow_certificate(affine_image(dissection))) == head + image

    @pytest.mark.parametrize("name", corpus_names())
    def test_summary_lines(self, name):
        report = equidissection_report(corpus_dissection(name))
        assert report.summary_lines() == GOLDEN_SUMMARIES[name]

    @pytest.mark.parametrize("key", sorted(relation_corpus()))
    def test_drawing_certificates_match_reference(self, key):
        tri = relation_corpus()[key]
        rng = random.Random(7)
        for _ in range(50):
            drawing = random_drawing(tri, rng, positive_ratio=True)
            assert drawing_certificate(drawing) == reference_certificate(drawing)

    def test_collinear_frame_has_no_colors(self):
        points = {v: make_point(k, 2 * k) for k, v in enumerate("pqs")}
        with pytest.raises(DegenerateFrameError, match="corners p, q, s are collinear"):
            vertex_colors(points)


class TestDrawingCertificates:
    @pytest.mark.parametrize("key", sorted(relation_corpus()))
    def test_random_drawings_certify(self, key):
        tri = relation_corpus()[key]
        rng = random.Random(42)
        for _ in range(25):
            drawing = random_drawing(tri, rng, positive_ratio=True)
            certificate = drawing_certificate(drawing)
            assert isinstance(certificate, RainbowCertificate)
            assert certificate.boundary in ("CAAB", "CABB")
            assert len(certificate.rainbow) % 2 == 1

    def test_boundary_tracks_ratio_valuation(self):
        tri = relation_corpus()["diagonal-1"]
        rng = random.Random(43)
        for _ in range(25):
            drawing = random_drawing(tri, rng, positive_ratio=True)
            certificate = drawing_certificate(drawing)
            expected = "CAAB" if val2(certificate.ratio) <= 0 else "CABB"
            assert certificate.boundary == expected

    def test_vertex_colors_match_certificate(self):
        tri = relation_corpus()["center-fan"]
        drawing = random_drawing(tri, random.Random(44), positive_ratio=True)
        assert vertex_colors(drawing.points) == drawing_certificate(drawing).vertex_colors

    @pytest.mark.parametrize(
        "r, s, problem",
        [((-3, 1), (0, 1), "ratio -3 is not positive"), ((1, -1), (0, -1), "not counterclockwise")],
    )
    def test_dishonest_frame_is_refused(self, r, s, problem):
        points = {"p": make_point(0, 0), "q": make_point(1, 0), "r": make_point(*r), "s": make_point(*s)}
        with pytest.raises(ColoringError, match=problem):
            drawing_certificate(Drawing(diagonal_family(0), points))


class TestEquidissectionReports:
    @pytest.mark.parametrize(
        "name, count, equal, admissible",
        [
            ("diag2", 2, True, True),
            ("fan4", 4, True, True),
            ("eighths", 8, True, True),
            ("unequal3", 3, False, None),
            ("tvertex", 3, False, None),
        ],
    )
    def test_reports(self, name, count, equal, admissible):
        report = equidissection_report(corpus_dissection(name))
        assert report.count == count
        assert report.equal_areas is equal
        assert report.admissible is admissible
        assert report.ratio == 1
        assert report.required_valuation == 1
        assert report.count_valuation == val2(Fraction(count))

    def test_summary_lines(self):
        report = equidissection_report(corpus_dissection("fan4"))
        lines = report.summary_lines()
        assert any("count admissible: yes" in line for line in lines)
        report = equidissection_report(corpus_dissection("tvertex"))
        assert not any("admissible" in line for line in report.summary_lines())

    @pytest.mark.parametrize("name", corpus_names())
    def test_some_triangle_has_small_true_area(self, name):
        # On the unit square every dissection owns a triangle whose true
        # (halved) area has negative 2-adic valuation.
        dissection = corpus_dissection(name)
        halves = [
            val2(doubled_area(*dissection.triangle_points(t)) / 2)
            for t in dissection.triangles
        ]
        assert min(halves) <= -1
