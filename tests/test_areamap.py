"""Drawings, their area values, the symbolic gauge, and frame normalization."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from areapoly.areamap import (
    DegenerateFrameError,
    Drawing,
    doubled_area,
    drawing_from_json,
    drawing_to_json,
    frame_problems,
    gauged_areas,
    make_point,
    normalize_map,
    points_to_json,
    random_drawing,
    trapezoid_ratio,
)
from areapoly.cli import main
from areapoly.corpus import relation_corpus
from areapoly.poly import Poly
from areapoly.triangulation import diagonal_family, make_triangulation
from areapoly.variety import area_values

UNIT_SQUARE = {
    "p": make_point(0, 0),
    "q": make_point(1, 0),
    "r": make_point(1, 1),
    "s": make_point(0, 1),
}


def minimal_drawing() -> Drawing:
    tri = make_triangulation(
        vertices=("p", "q", "r", "s"),
        triangles=[("p", "q", "r"), ("p", "r", "s")],
    )
    return Drawing(tri, dict(UNIT_SQUARE))


class TestGeometry:
    def test_doubled_area_orientation(self):
        a, b, c = make_point(0, 0), make_point(1, 0), make_point(0, 1)
        assert doubled_area(a, b, c) == 1
        assert doubled_area(a, c, b) == -1
        assert doubled_area(a, b, make_point(2, 0)) == 0

    def test_trapezoid_ratio_square(self):
        assert trapezoid_ratio(UNIT_SQUARE) == 1

    def test_trapezoid_ratio_general(self):
        points = dict(UNIT_SQUARE)
        points["r"] = make_point(Fraction(5, 2), 1)
        assert trapezoid_ratio(points) == Fraction(5, 2)

    def test_trapezoid_ratio_rejects_skew_top(self):
        points = dict(UNIT_SQUARE)
        points["r"] = make_point(1, 2)
        with pytest.raises(ValueError):
            trapezoid_ratio(points)

    def test_trapezoid_ratio_is_exact_on_int_points(self):
        points = {"p": (0, 0), "q": (3, 0), "r": (1, 1), "s": (0, 1)}
        ratio = trapezoid_ratio(points)
        assert type(ratio) is Fraction and ratio == Fraction(1, 3)
        vertical = {"p": (0, 0), "q": (0, 3), "r": (-1, 2), "s": (-1, 0)}
        assert trapezoid_ratio(vertical) == Fraction(2, 3)
        points["r"] = (-1, 1)
        assert frame_problems(points) == ["trapezoid ratio -1/3 is not positive"]


class TestDrawing:
    def test_frame_areas(self):
        drawing = minimal_drawing()
        opposite = doubled_area(*(drawing.point(c) for c in "qsr"))
        assert drawing.frame_area() == -1
        assert opposite == -1
        total = sum(map(drawing.triangle_area, drawing.triangulation.triangle_names))
        assert drawing.frame_area() + opposite == -total

    def test_area_vector(self):
        """The frame first, then each triangle; ``int`` points give ``int``
        values and ``Fraction`` points ``Fraction`` values."""
        drawing = minimal_drawing()
        integer = {v: (int(x), int(y)) for v, (x, y) in UNIT_SQUARE.items()}
        for points, kind in ((drawing.points, Fraction), (integer, int)):
            values = area_values(drawing.triangulation, points)
            assert list(values.items()) == [("U", -1), ("B1", 1), ("B2", 1)]
            assert all(type(v) is kind for v in values.values())
            areas = area_values(drawing.triangulation, points, frame=False)
            assert list(areas.items()) == [("B1", 1), ("B2", 1)]
            assert sum(areas.values()) == 2

    def test_area_vector_reads_each_name_once(self, monkeypatch):
        """One pass over the triangles; a repeated name takes its first
        triangle's area, as ``triangle_area`` does."""
        tri = make_triangulation(
            vertices=("p", "q", "r", "s"),
            triangles=[("p", "q", "r"), ("p", "r", "s"), ("p", "s", "r")],
            names=["B1", "B2", "B1"],
        )
        drawing = Drawing(tri, dict(UNIT_SQUARE))
        assert tuple(map(drawing.triangle_area, tri.triangle_names)) == (1, 1, 1)
        assert doubled_area(*(UNIT_SQUARE[v] for v in "psr")) == -1

        def refuse(self, name):
            raise AssertionError("linear lookup of a triangle by name")

        monkeypatch.setattr(type(tri), "triangle", refuse)
        assert list(area_values(tri, drawing.points).items()) == [("U", -1), ("B1", 1), ("B2", 1)]
        assert list(area_values(tri, drawing.points, frame=False).items()) == [("B1", 1), ("B2", 1)]

    def test_validate_flags_bad_ratio(self):
        tri = minimal_drawing().triangulation
        points = dict(UNIT_SQUARE)
        points["r"] = make_point(-1, 1)
        assert Drawing(tri, points).validate()

    def test_json_round_trip(self):
        drawing = minimal_drawing()
        assert drawing_from_json(drawing_to_json(drawing)) == drawing


class TestGauge:
    @pytest.mark.parametrize("key", sorted(relation_corpus()))
    def test_identities(self, key):
        gauge = gauged_areas(relation_corpus()[key])
        lam = Poly.variable(gauge.ring, "lam")
        ratio = Poly.variable(gauge.ring, "t")
        total = gauge.total()
        assert total == lam * (Poly.one(gauge.ring) + ratio)
        assert gauge.frame + gauge.opposite_frame == -total
        assert gauge.frame == -lam

    @pytest.mark.parametrize("key", sorted(relation_corpus()))
    def test_vertical_weight_homogeneity(self, key):
        gauge = gauged_areas(relation_corpus()[key])
        weights = {"lam": 1}
        for name in gauge.ring.names:
            if name.startswith("y_"):
                weights[name] = 1
        for poly in (gauge.frame, gauge.opposite_frame, *gauge.areas.values()):
            assert poly.weighted_degree(weights) == 1
            assert poly.total_degree() <= 2


class TestNormalization:
    def test_map_sends_frame_to_unit(self):
        p, q, s = make_point(1, 1), make_point(3, 2), make_point(2, 4)
        mapper = normalize_map(p, q, s)
        assert mapper.apply(p) == (0, 0)
        assert mapper.apply(q) == (1, 0)
        assert mapper.apply(s) == (0, 1)
        assert mapper.det == Fraction(1, doubled_area(p, q, s))

    def test_collinear_frame_rejected(self):
        with pytest.raises(DegenerateFrameError):
            normalize_map(make_point(0, 0), make_point(1, 1), make_point(2, 2))

    def test_fourth_corner_lands_on_ratio(self):
        rng = random.Random(3)
        tri = diagonal_family(1)
        for _ in range(20):
            drawing = random_drawing(tri, rng)
            ratio = trapezoid_ratio({c: drawing.point(c) for c in "pqrs"})
            mapper = normalize_map(*(drawing.point(c) for c in "pqs"))
            assert mapper.apply(drawing.point("r")) == (ratio, Fraction(1))

    def test_areas_rescale_by_determinant(self):
        rng = random.Random(4)
        tri = diagonal_family(1)
        drawing = random_drawing(tri, rng)
        mapper = normalize_map(*(drawing.point(c) for c in "pqs"))
        points = {v: mapper.apply(pt) for v, pt in drawing.points.items()}
        normalized = Drawing(tri, points)
        for name in tri.triangle_names:
            assert normalized.triangle_area(name) == (
                mapper.det * drawing.triangle_area(name)
            )


class TestRandomDrawings:
    def test_seeded_reproducibility(self):
        tri = diagonal_family(2)
        one = random_drawing(tri, random.Random(11))
        two = random_drawing(tri, random.Random(11))
        assert one == two

    def test_parallelogram_mode(self):
        tri = diagonal_family(1)
        rng = random.Random(5)
        for _ in range(20):
            drawing = random_drawing(tri, rng, parallelogram=True)
            p, q = drawing.point("p"), drawing.point("q")
            r, s = drawing.point("r"), drawing.point("s")
            assert (r[0] - s[0], r[1] - s[1]) == (q[0] - p[0], q[1] - p[1])

    def test_positive_ratio_mode_validates(self):
        tri = diagonal_family(1)
        rng = random.Random(6)
        for _ in range(30):
            drawing = random_drawing(tri, rng, positive_ratio=True)
            assert drawing.validate() == []

    def test_frame_never_degenerate(self):
        tri = diagonal_family(0)
        rng = random.Random(7)
        for _ in range(50):
            assert random_drawing(tri, rng).frame_area() != 0


# Seeded drawings as "vertex=(x,y)" in key order, one per (triangulation,
# mode, seed).  Seed 1 redraws its frame in positive-ratio mode and seed 3
# flips its ratio, so both branches of that mode are pinned.
GOLDEN_DRAWINGS = {
    ("diagonal-1", "default", 1):
    "p=(-1,-7/3) q=(-3/2,5/4) r=(21/8,-153/16) s=(3/2,-3/2) p1=(4/5,-9/8)",
    ("diagonal-1", "default", 3):
    "p=(-2/5,4) q=(2/5,3/4) r=(221/25,-8/5) s=(9,-9/4) p1=(-1,6/5)",
    ("diagonal-1", "parallelogram", 1):
    "p=(-1,-7/3) q=(-3/2,5/4) r=(1,25/12) s=(3/2,-3/2) p1=(-9/4,4/5)",
    ("diagonal-1", "parallelogram", 3):
    "p=(-2/5,4) q=(2/5,3/4) r=(49/5,-11/2) s=(9,-9/4) p1=(-1/5,-1)",
    ("diagonal-1", "positive_ratio", 1):
    "p=(-1/2,6/5) q=(-2/3,-1/4) r=(-19/30,-29/25) s=(-1/2,0) p1=(-3,0)",
    ("diagonal-1", "positive_ratio", 3):
    "p=(-2/5,4) q=(2/5,3/4) r=(229/25,-29/10) s=(9,-9/4) p1=(-1,6/5)",
    ("refined-diagonal-1", "default", 1):
    "p=(-1,-7/3) q=(-3/2,5/4) r=(21/8,-153/16) s=(3/2,-3/2) p1=(4/5,-9/8) m_A1=(5/3,-2/5)",
    ("refined-diagonal-1", "default", 3):
    "p=(-2/5,4) q=(2/5,3/4) r=(221/25,-8/5) s=(9,-9/4) p1=(-1,6/5) m_A1=(2,3/8)",
    ("refined-diagonal-1", "parallelogram", 1):
    "p=(-1,-7/3) q=(-3/2,5/4) r=(1,25/12) s=(3/2,-3/2) p1=(-9/4,4/5) m_A1=(-9/8,5/3)",
    ("refined-diagonal-1", "parallelogram", 3):
    "p=(-2/5,4) q=(2/5,3/4) r=(49/5,-11/2) s=(9,-9/4) p1=(-1/5,-1) m_A1=(6/5,2)",
    ("refined-diagonal-1", "positive_ratio", 1):
    "p=(-1/2,6/5) q=(-2/3,-1/4) r=(-19/30,-29/25) s=(-1/2,0) p1=(-3,0) m_A1=(1/8,7/4)",
    ("refined-diagonal-1", "positive_ratio", 3):
    "p=(-2/5,4) q=(2/5,3/4) r=(229/25,-29/10) s=(9,-9/4) p1=(-1,6/5) m_A1=(2,3/8)",
}

GOLDEN_CLI_DRAWING = """\
{
  "command": "random-drawing",
  "drawing": {
    "points": {
      "p": [
        "1",
        "2/3"
      ],
      "p1": [
        "-1",
        "3/2"
      ],
      "q": [
        "-5/2",
        "-3"
      ],
      "r": [
        "-77/20",
        "-41/5"
      ],
      "s": [
        "7/4",
        "-7/3"
      ]
    },
    "triangulation": {
      "triangles": [
        {
          "name": "A1",
          "vertices": [
            "s",
            "p",
            "p1"
          ]
        },
        {
          "name": "A2",
          "vertices": [
            "s",
            "p1",
            "r"
          ]
        },
        {
          "name": "B1",
          "vertices": [
            "q",
            "p1",
            "p"
          ]
        },
        {
          "name": "B2",
          "vertices": [
            "q",
            "r",
            "p1"
          ]
        }
      ],
      "vertices": [
        "p",
        "q",
        "r",
        "s",
        "p1"
      ]
    }
  }
}
"""


class TestGoldenDrawings:
    """The seeded stream itself, not only its reproducibility."""

    @pytest.mark.parametrize("key, mode, seed", sorted(GOLDEN_DRAWINGS))
    def test_seeded_points_and_key_order(self, key, mode, seed):
        tri = relation_corpus()[key]
        flags = {} if mode == "default" else {mode: True}
        drawing = random_drawing(tri, random.Random(seed), **flags)
        shown = " ".join(
            f"{v}=({x},{y})" for v, (x, y) in points_to_json(drawing.points).items()
        )
        assert shown == GOLDEN_DRAWINGS[key, mode, seed]

    def test_cli_json_drawing(self, capsys):
        assert main(["random-drawing", "--diagonal", "1", "--seed", "9", "--json"]) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (GOLDEN_CLI_DRAWING, "")
