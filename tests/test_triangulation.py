"""Combinatorial triangulations: builders, validation, serialization."""

from __future__ import annotations

import time

import pytest

from areapoly.triangulation import (
    CORNERS,
    CombinatorialTriangulation,
    InvalidTriangulationError,
    Triangle,
    barycentric_refine,
    center_fan,
    diagonal_family,
    make_triangulation,
    triangulation_from_json,
    triangulation_to_json,
)


def minimal() -> CombinatorialTriangulation:
    return make_triangulation(
        vertices=CORNERS,
        triangles=[("p", "q", "r"), ("p", "r", "s")],
    )


class TestBuilders:
    def test_minimal_valid(self):
        assert minimal().validate() == []

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_diagonal_family_valid(self, n):
        tri = diagonal_family(n)
        assert tri.validate() == []
        assert len(tri.triangles) == 2 * (n + 1)
        assert tri.interior_vertices() == tuple(f"p{i}" for i in range(1, n + 1))
        assert tri.triangle_names == tuple(
            [f"A{i}" for i in range(1, n + 2)] + [f"B{i}" for i in range(1, n + 2)]
        )

    def test_validation_is_linear_in_the_triangles(self):
        tri = diagonal_family(20000)
        start = time.perf_counter()
        assert tri.validate() == []
        assert time.perf_counter() - start < 10

    def test_diagonal_family_rejects_negative(self):
        with pytest.raises(ValueError):
            diagonal_family(-1)

    def test_center_fan_valid(self):
        tri = center_fan()
        assert tri.validate() == []
        assert tri.interior_vertices() == ("c",)
        assert len(tri.triangles) == 4

    def test_default_triangle_names(self):
        tri = minimal()
        assert tri.triangle_names == ("B1", "B2")

    def test_refine_valid_and_replaces_in_order(self):
        tri = barycentric_refine(diagonal_family(1), "A1")
        assert tri.validate() == []
        assert tri.triangle_names == ("A1a", "A1b", "A1c", "A2", "B1", "B2")
        assert "m_A1" in tri.interior_vertices()

    def test_refine_unknown_triangle(self):
        with pytest.raises(KeyError):
            barycentric_refine(minimal(), "nope")

    def test_refine_rejects_existing_vertex_name(self):
        with pytest.raises(ValueError):
            barycentric_refine(minimal(), "B1", new_vertex="q")


class TestValidation:
    def test_missing_corner(self):
        tri = CombinatorialTriangulation(
            vertices=("p", "q", "r"),
            triangles=(Triangle("B1", ("p", "q", "r")),),
        )
        assert any("corner" in problem for problem in tri.validate())

    def test_subdivided_side_is_rejected(self):
        # A vertex in the middle of the bottom side leaves the boundary
        # with five edges instead of four.
        tri = make_triangulation(
            vertices=(*CORNERS, "m"),
            triangles=[("p", "m", "s"), ("m", "q", "r"), ("m", "r", "s")],
        )
        assert any("boundary" in problem for problem in tri.validate())

    def test_inconsistent_orientation(self):
        tri = make_triangulation(
            vertices=CORNERS,
            triangles=[("p", "q", "r"), ("p", "s", "r")],
        )
        problems = tri.validate()
        assert problems

    def test_duplicate_triangle_names(self):
        tri = CombinatorialTriangulation(
            vertices=CORNERS,
            triangles=(
                Triangle("B1", ("p", "q", "r")),
                Triangle("B1", ("p", "r", "s")),
            ),
        )
        assert any("duplicate" in problem for problem in tri.validate())

    def test_unused_interior_vertex(self):
        tri = make_triangulation(
            vertices=(*CORNERS, "ghost"),
            triangles=[("p", "q", "r"), ("p", "r", "s")],
        )
        assert tri.validate()

    def test_degenerate_triangle_vertex_list(self):
        tri = CombinatorialTriangulation(
            vertices=CORNERS,
            triangles=(Triangle("B1", ("p", "q", "q")),),
        )
        assert any("repeats" in problem for problem in tri.validate())

    def test_require_valid_raises_with_problems(self):
        tri = CombinatorialTriangulation(
            vertices=CORNERS,
            triangles=(Triangle("B1", ("p", "q", "q")),),
        )
        with pytest.raises(InvalidTriangulationError) as excinfo:
            tri.require_valid()
        assert excinfo.value.problems

    def test_pinched_interior_link(self):
        # Two opposite quadrants meeting only at the center: the center
        # link is two disjoint pieces, not one cycle.
        tri = make_triangulation(
            vertices=(*CORNERS, "c"),
            triangles=[
                ("p", "q", "c"),
                ("q", "r", "c"),
                ("r", "s", "c"),
                ("s", "p", "c"),
            ],
        )
        assert tri.validate() == []
        broken = make_triangulation(
            vertices=(*CORNERS, "c", "d"),
            triangles=[
                ("p", "q", "c"),
                ("q", "r", "c"),
                ("r", "s", "c"),
                ("s", "p", "c"),
                ("c", "d", "c"),
            ],
        )
        assert broken.validate()


class TestJson:
    def test_round_trip(self):
        tri = diagonal_family(2)
        again = triangulation_from_json(triangulation_to_json(tri))
        assert again == tri

    def test_bare_triples_get_default_names(self):
        data = {
            "vertices": ["p", "q", "r", "s"],
            "triangles": [["p", "q", "r"], ["p", "r", "s"]],
        }
        tri = triangulation_from_json(data)
        assert tri.triangle_names == ("B1", "B2")

    def test_named_objects(self):
        data = {
            "vertices": ["p", "q", "r", "s"],
            "triangles": [
                {"name": "low", "vertices": ["p", "q", "r"]},
                {"name": "high", "vertices": ["p", "r", "s"]},
            ],
        }
        tri = triangulation_from_json(data)
        assert tri.triangle_names == ("low", "high")
