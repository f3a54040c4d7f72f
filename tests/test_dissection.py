"""Geometric dissections: validation and poofing into triangulations."""

from __future__ import annotations

import json
import time
from fractions import Fraction

import pytest

from areapoly import dissection as dissection_module
from areapoly.areamap import doubled_area, make_point
from areapoly.cli import main
from areapoly.corpus import corpus_dissection, corpus_names
from areapoly.exact import format_rational
from areapoly.dissection import (
    MAX_DISSECTION_TRIANGLES,
    GeometricDissection,
    InvalidDissectionError,
    dissection_from_json,
    dissection_to_json,
    poof,
)
from areapoly.triangulation import Triangle
from areapoly.variety import area_values


def square_points(**extra) -> dict:
    points = {
        "p": make_point(0, 0),
        "q": make_point(1, 0),
        "r": make_point(1, 1),
        "s": make_point(0, 1),
    }
    points.update(extra)
    return points


def dissection(points, *triangles) -> GeometricDissection:
    return GeometricDissection(
        points=points,
        triangles=tuple(
            Triangle(f"B{i + 1}", tuple(v)) for i, v in enumerate(triangles)
        ),
    )


class TestValidation:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_is_valid(self, name):
        assert corpus_dissection(name).validate() == []

    def test_clockwise_triangle_rejected(self):
        d = dissection(square_points(), ("p", "r", "q"), ("p", "r", "s"))
        assert any("clockwise" in p for p in d.validate())

    def test_overlap_rejected(self):
        d = dissection(
            square_points(m=make_point(Fraction(1, 2), Fraction(1, 2))),
            ("p", "q", "r"),
            ("p", "r", "s"),
            ("p", "q", "m"),
        )
        assert d.validate()

    def test_gap_rejected(self):
        d = dissection(
            square_points(m=make_point(Fraction(1, 2), Fraction(1, 2))),
            ("p", "q", "m"),
            ("p", "m", "s"),
            ("m", "q", "r"),
        )
        assert any("area" in p for p in d.validate())

    def test_outside_vertex_rejected(self):
        d = dissection(
            square_points(far=make_point(5, 5)),
            ("p", "q", "far"),
            ("p", "far", "s"),
        )
        assert d.validate()

    def test_unused_vertex_rejected(self):
        d = dissection(
            square_points(ghost=make_point(Fraction(1, 3), Fraction(1, 3))),
            ("p", "q", "r"),
            ("p", "r", "s"),
        )
        assert any("ghost" in p for p in d.validate())

    def test_coincident_vertices_rejected(self):
        d = dissection(
            square_points(dup=make_point(0, 0)),
            ("p", "q", "r"),
            ("p", "r", "s"),
            ("p", "dup", "s"),
        )
        assert d.validate()

    def test_many_points_are_checked_in_linear_time(self):
        """One triangle and 3 000 extra points, three at each position,
        three of them on ``p``: the problems come in point order."""
        extra = {f"x{k}": make_point(Fraction(k % 1000, 1000), 0) for k in range(3000)}
        d = dissection(square_points(**extra), ("p", "q", "r"))
        started = time.perf_counter()
        problems = d.validate()
        assert time.perf_counter() - started < 1

        def shared(u, v, k):
            x = format_rational(Fraction(k, 1000))
            return f"vertices {u!r} and {v!r} share the point ({x}, 0)"

        later = [(k, j) for k in range(2000) for j in (k + 1000, k + 2000) if j < 3000]
        assert problems == [
            *(shared("p", f"x{k}", 0) for k in (0, 1000, 2000)),
            *(shared(f"x{k}", f"x{j}", k % 1000) for k, j in later),
            "vertex 's' belongs to no triangle",
            *(f"vertex 'x{k}' belongs to no triangle" for k in range(3000)),
        ]

    def test_degenerate_triangle_rejected(self):
        points = square_points(m=make_point(Fraction(1, 2), Fraction(1, 2)))
        d = dissection(points, ("p", "m", "r"), ("p", "q", "r"), ("p", "r", "s"))
        assert d.validate()

    def test_require_valid_raises(self):
        d = dissection(square_points(), ("p", "r", "q"), ("p", "r", "s"))
        with pytest.raises(InvalidDissectionError):
            d.require_valid()


def grid(columns: int, rows: int) -> GeometricDissection:
    """The unit square cut into ``columns`` by ``rows`` cells, two triangles each."""
    corners = {(0, 0): "p", (columns, 0): "q", (columns, rows): "r", (0, rows): "s"}

    def name(i, j):
        return corners.get((i, j), f"v{i}_{j}")

    points = {
        name(i, j): make_point(Fraction(i, columns), Fraction(j, rows))
        for i in range(columns + 1)
        for j in range(rows + 1)
    }
    cells = []
    for i in range(columns):
        for j in range(rows):
            a, b, c, d = name(i, j), name(i + 1, j), name(i + 1, j + 1), name(i, j + 1)
            cells += [(a, b, c), (a, c, d)]
    return dissection(points, *cells)


class TestTriangleCap:
    """Validation is quadratic in the triangles, so a dissection above the
    cap is refused before any pair of them is compared."""

    def test_a_grid_above_the_cap_is_refused_before_the_pair_tests(
        self, tmp_path, capsys, monkeypatch
    ):
        above = grid(167, 3)
        assert len(above.triangles) == MAX_DISSECTION_TRIANGLES + 2

        def refuse(*args):
            raise AssertionError("pair test ran")

        monkeypatch.setattr(dissection_module, "_interiors_disjoint", refuse)
        path = tmp_path / "above.json"
        path.write_text(json.dumps(dissection_to_json(above)))
        for command in ("validate", "color", "rainbow", "equidissect-report", "poof"):
            assert main([command, str(path)]) == 3
            assert capsys.readouterr().err == (
                "resource guard: dissection has 1002 triangles, more than 1000\n"
            )

    def test_a_grid_at_the_cap_validates(self, tmp_path, capsys):
        at = grid(25, 20)
        assert len(at.triangles) == MAX_DISSECTION_TRIANGLES
        path = tmp_path / "at.json"
        path.write_text(json.dumps(dissection_to_json(at)))
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == "dissection: valid\n"


def trapezoid_points(**extra) -> dict:
    """A trapezoid with ratio 1/2, non-integer corners and doubled area 6/5."""
    points = {
        "p": make_point(Fraction(1, 3), Fraction(1, 5)),
        "q": make_point(Fraction(5, 3), Fraction(1, 5)),
        "r": make_point(1, Fraction(4, 5)),
        "s": make_point(Fraction(1, 3), Fraction(4, 5)),
    }
    points.update({v: make_point(*xy) for v, xy in extra.items()})
    return points


class TestValidationTexts:
    """Every problem text, byte for byte, on a frame with non-integer corners."""

    MIDDLE = (Fraction(2, 3), Fraction(1, 2))

    @pytest.mark.parametrize(
        "extra, triangles, problems",
        [
            (
                {"m": MIDDLE},
                [("p", "q", "m"), ("q", "r", "m"), ("r", "s", "m"), ("s", "p", "m")],
                [],
            ),
            (
                {"c": MIDDLE},
                [("p", "c", "r"), ("p", "q", "r"), ("p", "r", "s")],
                ["triangle B1 is degenerate"],
            ),
            ({}, [("p", "r", "q"), ("p", "r", "s")], ["triangle B1 is clockwise"]),
            (
                {"far": (Fraction(2, 3), Fraction(7, 3))},
                [("p", "q", "r"), ("p", "r", "s"), ("s", "r", "far")],
                [
                    "vertex 'far' lies outside the quadrilateral",
                    "triangle areas sum to 20/9, quadrilateral has 6/5",
                ],
            ),
            (
                {"m": MIDDLE},
                [("p", "q", "r"), ("p", "r", "s"), ("p", "q", "m")],
                [
                    "triangles B1 and B3 overlap",
                    "triangle areas sum to 8/5, quadrilateral has 6/5",
                ],
            ),
            (
                {"dup": (Fraction(1, 3), Fraction(1, 5))},
                [("p", "q", "r"), ("p", "r", "s"), ("p", "dup", "s")],
                ["vertices 'p' and 'dup' share the point (1/3, 1/5)"],
            ),
            (
                {"m": (Fraction(2, 3), Fraction(3, 7))},
                [("p", "q", "m"), ("s", "p", "m"), ("q", "r", "m")],
                ["triangle areas sum to 20/21, quadrilateral has 6/5"],
            ),
        ],
        ids=["valid", "degenerate", "clockwise", "outside", "overlap", "shared", "gap"],
    )
    def test_problem_texts(self, extra, triangles, problems):
        assert dissection(trapezoid_points(**extra), *triangles).validate() == problems


class TestPoof:
    def test_edge_to_edge_needs_no_fillers(self):
        tri, drawing = poof(corpus_dissection("diag2"))
        assert tri.validate() == []
        assert tri.triangle_names == ("B1", "B2")
        assert sum(area_values(tri, drawing.points, frame=False).values()) == 2

    @pytest.mark.parametrize(
        "name, fillers",
        [("tvertex", 1), ("unequal3", 1), ("eighths", 4)],
    )
    def test_filler_counts(self, name, fillers):
        source = corpus_dissection(name)
        tri, drawing = poof(source)
        assert tri.validate() == []
        originals = {t.name for t in source.triangles}
        extras = [n for n in tri.triangle_names if n not in originals]
        assert len(extras) == fillers
        for extra in extras:
            assert drawing.triangle_area(extra) == 0

    @pytest.mark.parametrize("name", corpus_names())
    def test_areas_preserved(self, name):
        source = corpus_dissection(name)
        tri, drawing = poof(source)
        for t in source.triangles:
            assert drawing.triangle_area(t.name) == doubled_area(
                *source.triangle_points(t)
            )
        assert sum(area_values(tri, drawing.points, frame=False).values()) == 2

    @pytest.mark.parametrize("name", corpus_names())
    def test_poofed_drawing_frame_is_honest(self, name):
        _, drawing = poof(corpus_dissection(name))
        assert drawing.validate() == []
        assert drawing.frame_area() == -1

    def test_rejects_invalid_input(self):
        bad = dissection(square_points(), ("p", "r", "q"), ("p", "r", "s"))
        with pytest.raises(InvalidDissectionError):
            poof(bad)


class TestJson:
    @pytest.mark.parametrize("name", corpus_names())
    def test_round_trip(self, name):
        source = corpus_dissection(name)
        again = dissection_from_json(dissection_to_json(source))
        assert again == source
