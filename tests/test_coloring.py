"""2-adic coloring, rainbow certificates, equidissection reports."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from areapoly.areamap import Drawing, doubled_area, make_point, random_drawing
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
