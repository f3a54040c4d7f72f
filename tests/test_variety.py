"""Area relations: elimination route, oracle route, and shape theorems."""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from areapoly import variety
from areapoly.areamap import random_drawing, random_integer_drawing
from areapoly.corpus import PRINTED_RELATION, relation_corpus
from areapoly.poly import Poly, Ring, canonical_str, parse_polynomial
from areapoly.triangulation import (
    CORNERS,
    CombinatorialTriangulation,
    InvalidTriangulationError,
    Triangle,
    barycentric_refine,
    center_fan,
    diagonal_family,
)
from areapoly.variety import (
    FRAME_VARIABLE,
    NameCollisionError,
    OracleError,
    RelationShapeError,
    areas_algebraically_independent,
    diagonal_relation_formula,
    doubling_substitution,
    drawing_values,
    family_quotient,
    frame_power_profile,
    gauge_parameter_count,
    independence_rank,
    interpolated_relation,
    is_frame_monic,
    is_monic_in_every_variable,
    monomials_of_degree,
    parallelogram_polynomial,
    rational_nullspace,
    relation_ring,
    trapezoid_polynomial,
    verify_parallelogram_frame_vanishing,
    verify_vanishing,
)

FROZEN_TRAPEZOID = {
    "diagonal-0": "U + B1",
    "diagonal-1": "U^2 + U*A1 + 2*U*B1 + U*B2 + A1*B1 + A2*B1 + B1^2 + B1*B2",
    "center-fan": PRINTED_RELATION,
    "refined-diagonal-1": (
        "U^2 + U*A1a + U*A1b + U*A1c + 2*U*B1 + U*B2 "
        "+ A1a*B1 + A1b*B1 + A1c*B1 + A2*B1 + B1^2 + B1*B2"
    ),
}

FROZEN_PARALLELOGRAM = {
    "diagonal-0": "A1 - B1",
    "diagonal-1": "A1 - A2 - B1 + B2",
    "diagonal-2": (
        "A1^2 - 2*A1*A3 + 2*A1*B2 - A2^2 - 2*A2*B1 - 2*A2*B3 "
        "+ A3^2 + 2*A3*B2 - B1^2 + 2*B1*B3 + B2^2 - B3^2"
    ),
    "center-fan": "B1 - B2 + B3 - B4",
    "refined-diagonal-1": "A1a + A1b + A1c - A2 - B1 + B2",
}

FROZEN_PROFILES = {
    "diagonal-1": {"A1": (1, 1), "A2": (2, 0), "B1": (0, 2), "B2": (1, 1)},
    "diagonal-2": {
        "A1": (1, 2),
        "A2": (2, 1),
        "A3": (3, 0),
        "B1": (0, 3),
        "B2": (1, 2),
        "B3": (2, 1),
    },
    "center-fan": {"B1": (0, 2), "B2": (1, 1), "B3": (2, 0), "B4": (1, 1)},
}


class TestEliminationRoute:
    @pytest.mark.parametrize("key", sorted(FROZEN_TRAPEZOID))
    def test_frozen_trapezoid_relations(self, key, trapezoid_relations):
        assert canonical_str(trapezoid_relations[key]) == FROZEN_TRAPEZOID[key]

    @pytest.mark.parametrize("key", sorted(FROZEN_PARALLELOGRAM))
    def test_frozen_parallelogram_relations(self, key, parallelogram_relations):
        assert canonical_str(parallelogram_relations[key]) == FROZEN_PARALLELOGRAM[key]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_matches_closed_formula(self, n, trapezoid_relations):
        relation = trapezoid_relations[f"diagonal-{n}"]
        assert relation == diagonal_relation_formula(n)
        assert relation.total_degree() == n + 1

    def test_two_step_size(self, trapezoid_relations):
        assert len(trapezoid_relations["diagonal-2"].terms) == 38

    @pytest.mark.parametrize("name", diagonal_family(2).triangle_names)
    def test_single_refinements_beyond_the_corpus(self, name):
        tri = barycentric_refine(diagonal_family(2), name)
        relation = trapezoid_polynomial(tri)
        assert is_frame_monic(relation)
        assert verify_vanishing(relation, tri, seed=11, count=5) == 5

    def test_three_steps_match_closed_formula(self):
        relation = trapezoid_polynomial(diagonal_family(3))
        assert relation == diagonal_relation_formula(3)
        assert len(relation.terms) == 195

    @pytest.mark.parametrize("key", sorted(FROZEN_TRAPEZOID))
    def test_homogeneous(self, key, trapezoid_relations):
        trapezoid_relations[key].homogeneous_degree()

    def test_refinement_splits_one_variable(self, trapezoid_relations):
        ring = trapezoid_relations["refined-diagonal-1"].ring
        split = sum(
            Poly.variable(ring, n) for n in ("A1a", "A1b", "A1c")
        )
        images = {
            "U": Poly.variable(ring, "U"),
            "A1": split,
            "A2": Poly.variable(ring, "A2"),
            "B1": Poly.variable(ring, "B1"),
            "B2": Poly.variable(ring, "B2"),
        }
        rebuilt = trapezoid_relations["diagonal-1"].substitute(images, ring=ring)
        assert rebuilt == trapezoid_relations["refined-diagonal-1"]

    def test_relation_ring_order(self):
        ring = relation_ring(diagonal_family(1))
        assert ring.names == ("U", "A1", "A2", "B1", "B2")

    @pytest.mark.parametrize(
        "key, count",
        [
            ("diagonal-0", 2),
            ("diagonal-1", 4),
            ("diagonal-2", 6),
            ("center-fan", 4),
            ("refined-diagonal-1", 6),
        ],
    )
    def test_gauge_parameter_count(self, key, count, corpus):
        assert gauge_parameter_count(corpus[key]) == count


class TestShapeTheorems:
    @pytest.mark.parametrize("key", sorted(FROZEN_TRAPEZOID))
    def test_frame_monic(self, key, trapezoid_relations):
        assert is_frame_monic(trapezoid_relations[key])

    def test_monic_in_every_variable(self, parallelogram_relations):
        for relation in parallelogram_relations.values():
            assert is_monic_in_every_variable(relation)

    def test_monic_in_every_variable_negative(self, trapezoid_relations):
        # The one-step trapezoid relation has no pure A2^2 term.
        assert not is_monic_in_every_variable(trapezoid_relations["diagonal-1"])

    @pytest.mark.parametrize("key", sorted(FROZEN_PROFILES))
    def test_restriction_profiles(self, key, trapezoid_relations):
        assert frame_power_profile(trapezoid_relations[key]) == FROZEN_PROFILES[key]

    def test_profile_rejects_other_shapes(self):
        ring = Ring(("U", "B1"))
        with pytest.raises(RelationShapeError):
            frame_power_profile(parse_polynomial("U^2 + U*B1 + 2*B1^2", ring))

    def test_doubling_substitution_smallest_case(self, trapezoid_relations):
        doubled = doubling_substitution(trapezoid_relations["diagonal-0"])
        assert canonical_str(doubled) == "-A1 + B1"

    @pytest.mark.parametrize("key", sorted(FROZEN_TRAPEZOID) + ["diagonal-2"])
    def test_family_quotients(
        self, key, trapezoid_relations, parallelogram_relations
    ):
        quotient = family_quotient(
            trapezoid_relations[key], parallelogram_relations[key]
        )
        if key == "diagonal-0":
            assert canonical_str(quotient) == "-1"
            return
        total = Poly.zero(quotient.ring)
        for name in quotient.ring.names:
            total = total + Poly.variable(quotient.ring, name)
        assert quotient in (total, -total)


class TestSampling:
    @pytest.mark.parametrize(
        "key, count",
        [
            ("diagonal-0", 2),
            ("diagonal-1", 4),
            ("diagonal-2", 6),
            ("center-fan", 4),
            ("refined-diagonal-1", 6),
        ],
    )
    def test_jacobian_rank_is_full(self, key, count, corpus):
        assert independence_rank(corpus[key]) == count

    def test_jacobian_rank_drops_in_parallelogram_mode(self, corpus):
        assert independence_rank(corpus["diagonal-1"], parallelogram=True) == 3

    @pytest.mark.parametrize("key", ["diagonal-0", "diagonal-1", "center-fan"])
    def test_areas_independent_without_frame(self, key, corpus):
        assert areas_algebraically_independent(corpus[key])

    def test_three_step_areas_independent_without_frame(self):
        assert areas_algebraically_independent(diagonal_family(3))

    @pytest.mark.parametrize("key", ["diagonal-0", "diagonal-1"])
    def test_oracle_matches_elimination(self, key, corpus, trapezoid_relations):
        sampled = interpolated_relation(corpus[key], seed=0)
        expected = trapezoid_relations[key]
        assert sampled in (expected, -expected)

    @pytest.mark.parametrize("key", ["diagonal-1", "center-fan"])
    def test_oracle_parallelogram_mode(self, key, corpus, parallelogram_relations):
        sampled = interpolated_relation(corpus[key], seed=1, parallelogram=True)
        expected = parallelogram_relations[key]
        assert sampled in (expected, -expected)

    def test_oracle_rejects_a_candidate_its_verification_drawings_refute(self, monkeypatch):
        # Parallelogram samples give the degree-1 candidate 2*U + (sum of
        # the areas), which genuine trapezoid drawings refute.
        tri = diagonal_family(2)
        forced = 3 * len(relation_ring(tri))
        calls = itertools.count()

        def sampler(tri, rng, parallelogram=False):
            return random_integer_drawing(tri, rng, parallelogram=next(calls) < forced)

        monkeypatch.setattr(variety, "random_integer_drawing", sampler)
        with pytest.raises(OracleError, match="fails on a verification drawing"):
            interpolated_relation(tri, seed=0)
        assert next(calls) > forced

    def test_oracle_rejects_a_nullspace_beyond_a_line(self, monkeypatch):
        tri = diagonal_family(1)
        drawing = random_integer_drawing(tri, random.Random(0))
        monkeypatch.setattr(variety, "random_integer_drawing", lambda *args, **kwargs: drawing)
        with pytest.raises(OracleError, match="has dimension 4"):
            interpolated_relation(tri, seed=0)

    @pytest.mark.parametrize("parallelogram", [False, True])
    @pytest.mark.parametrize(
        "key",
        ["diagonal-0", "diagonal-1", "diagonal-2", "center-fan", "refined-diagonal-1", "U-named"],
    )
    def test_drawing_values_match_the_fraction_areas(self, key, parallelogram, corpus):
        if key == "U-named":
            tri = renamed(diagonal_family(1), "B1", FRAME_VARIABLE)
        else:
            tri = corpus[key]
        rng = random.Random(f"{key} {parallelogram}")
        for _ in range(20):
            drawing = random_drawing(tri, rng, parallelogram=parallelogram)
            values = drawing_values(drawing)
            assert all(type(v) is Fraction for v in values.values())
            assert list(values.items()) == list(reference_values(drawing).items())

    @pytest.mark.parametrize("parallelogram", [False, True])
    @pytest.mark.parametrize(
        "key",
        ["diagonal-0", "diagonal-1", "diagonal-2", "center-fan", "refined-diagonal-1", "U-named"],
    )
    def test_integer_sampler_matches_the_values_of_random_drawing(
        self, key, parallelogram, corpus
    ):
        if key == "U-named":
            tri = renamed(diagonal_family(1), "B1", FRAME_VARIABLE)
        else:
            tri = corpus[key]
        shapes = variety._area_shapes(tri)
        seed = f"{key} {parallelogram}"
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(50):
            scale, points = random_integer_drawing(tri, rng, parallelogram=parallelogram)
            areas = variety._doubled_areas(shapes.values(), points)
            drawing = random_drawing(tri, twin, parallelogram=parallelogram)
            coords = [c for point in drawing.points.values() for c in point]
            assert scale == lcm(*(c.denominator for c in coords))
            expected = drawing_values(drawing)
            assert [(n, Fraction(a, scale * scale)) for n, a in zip(shapes, areas)] == list(
                expected.items()
            )
        assert rng.getstate() == twin.getstate()

    @pytest.mark.parametrize(
        "tri",
        [
            *relation_corpus().values(),
            *(barycentric_refine(diagonal_family(2), n) for n in diagonal_family(2).triangle_names),
        ],
        ids=[*relation_corpus(), *(f"refined-{n}" for n in diagonal_family(2).triangle_names)],
    )
    def test_parallelogram_frame_is_minus_half_the_total(self, tri):
        rng = random.Random(17)
        for _ in range(30):
            drawing = random_drawing(tri, rng, parallelogram=True)
            total = sum(drawing.area_vector().values, Fraction(0))
            assert drawing_values(drawing)[FRAME_VARIABLE] == -total / 2

    def test_vanishing_corpus(self, corpus, trapezoid_relations):
        checked = verify_vanishing(
            trapezoid_relations["diagonal-1"], corpus["diagonal-1"], seed=2, count=40
        )
        assert checked == 40

    def test_vanishing_catches_wrong_relation(self, corpus, trapezoid_relations):
        wrong = trapezoid_relations["diagonal-1"] + Poly.variable(
            trapezoid_relations["diagonal-1"].ring, "A1"
        )
        with pytest.raises(RelationShapeError) as caught:
            verify_vanishing(wrong, corpus["diagonal-1"], seed=3, count=40)
        assert str(caught.value) == "relation evaluates to 3007/100 on drawing 0 (seed 3)"
        with pytest.raises(RelationShapeError) as caught:
            verify_vanishing(wrong, corpus["diagonal-1"], seed=5, count=40, parallelogram=True)
        assert str(caught.value) == "relation evaluates to -227/40 on drawing 0 (seed 5)"

    def test_half_frame_vanishing(self, corpus, trapezoid_relations):
        checked = verify_parallelogram_frame_vanishing(
            trapezoid_relations["diagonal-1"], corpus["diagonal-1"], seed=4, count=40
        )
        assert checked == 40

    def test_half_frame_vanishing_needs_parallelogram_identity(
        self, corpus, trapezoid_relations
    ):
        wrong = trapezoid_relations["diagonal-1"] + Poly.constant(
            trapezoid_relations["diagonal-1"].ring, 1
        )
        with pytest.raises(RelationShapeError):
            verify_parallelogram_frame_vanishing(
                wrong, corpus["diagonal-1"], seed=5, count=10
            )

    @pytest.mark.parametrize("check", [verify_vanishing, verify_parallelogram_frame_vanishing])
    @pytest.mark.parametrize("case", ["undeclared-vertex", "single-triangle"])
    def test_vanishing_checks_refuse_invalid_triangulations(self, check, case):
        if case == "undeclared-vertex":
            tri = dataclasses.replace(diagonal_family(1), vertices=CORNERS)
        else:
            tri = CombinatorialTriangulation(CORNERS, (Triangle("B1", ("p", "q", "s")),))
        relation = parse_polynomial("U + B1", relation_ring(tri))
        with pytest.raises(InvalidTriangulationError):
            check(relation, tri, seed=0, count=5)


def reference_values(drawing) -> dict[str, Fraction]:
    """The frame area for ``U``, then every triangle's own area, which wins
    over the frame for a triangle named ``U``; in ``Fraction`` arithmetic."""
    return {FRAME_VARIABLE: drawing.frame_area(), **drawing.area_vector().as_dict()}


def renamed(tri, old, new):
    """``tri`` with the triangle ``old`` renamed to ``new``."""
    triangles = tuple(
        dataclasses.replace(t, name=new) if t.name == old else t for t in tri.triangles
    )
    return dataclasses.replace(tri, triangles=triangles)


class TestNameCollisions:
    BUILDERS = [trapezoid_polynomial, parallelogram_polynomial, areas_algebraically_independent]

    @pytest.mark.parametrize("builder", BUILDERS)
    @pytest.mark.parametrize(
        "tri", [renamed(diagonal_family(0), "B1", "lam"), renamed(center_fan(), "B2", "x_c")]
    )
    def test_gauge_coordinate_names_are_rejected(self, builder, tri):
        with pytest.raises(NameCollisionError, match="rename the triangles"):
            builder(tri)

    @pytest.mark.parametrize("builder", [trapezoid_polynomial, areas_algebraically_independent])
    def test_ratio_name_is_rejected_where_the_ratio_is_free(self, builder):
        with pytest.raises(NameCollisionError):
            builder(renamed(diagonal_family(0), "B1", "t"))

    def test_ratio_name_is_free_once_the_ratio_is_fixed(self):
        relation = parallelogram_polynomial(renamed(diagonal_family(0), "B1", "t"))
        assert canonical_str(relation) == "A1 - t"

    def test_frame_name_is_rejected_only_with_the_frame(self):
        tri = renamed(diagonal_family(0), "B1", FRAME_VARIABLE)
        with pytest.raises(NameCollisionError):
            trapezoid_polynomial(tri)
        with pytest.raises(NameCollisionError):
            relation_ring(tri, with_frame=True)
        assert canonical_str(parallelogram_polynomial(tri)) == "A1 - U"
        assert areas_algebraically_independent(tri)

    def test_triangle_named_like_the_frame_keeps_its_own_area(self):
        # Without the frame the name U is free, and on a drawing it must
        # take the triangle's area, not the frame's.
        tri = renamed(diagonal_family(1), "B1", FRAME_VARIABLE)
        relation = parallelogram_polynomial(tri)
        assert canonical_str(relation) == "A1 - A2 - U + B2"
        assert verify_vanishing(relation, tri, seed=5, count=20, parallelogram=True) == 20
        assert interpolated_relation(tri, parallelogram=True) in (relation, -relation)


MERSENNE_61 = 2**61 - 1


def reference_nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Right nullspace by Gauss-Jordan elimination over ``Fraction``, in
    free-column form: one vector per non-pivot column of the RREF."""
    width = len(rows[0])
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    rank = 0
    for col in range(width):
        pivot_row = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [x - factor * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    free = [c for c in range(width) if c not in set(pivots)]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for row_index, pc in enumerate(pivots):
            vec[pc] = -mat[row_index][fc]
        basis.append(vec)
    return basis


def low_rank_matrix(seed: int) -> list[list[Fraction]]:
    """A product of random rational factors, so its rank is at most the
    inner size; every fifth seed shifts one entry by ``2^61 - 1``."""
    rng = random.Random(seed)
    rows, cols, inner = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 5)

    def entry() -> Fraction:
        return Fraction(rng.randint(-50, 50), rng.choice((1, 1, 2, 3, 7, 11)))

    left = [[entry() for _ in range(inner)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(inner)]
    mat = [
        [sum((a * right[k][j] for k, a in enumerate(row)), Fraction(0)) for j in range(cols)]
        for row in left
    ]
    if seed % 5 == 0:
        mat[rng.randrange(rows)][rng.randrange(cols)] += MERSENNE_61
    return mat


class TestLinearAlgebraHelpers:
    def test_monomials_of_degree(self):
        assert monomials_of_degree(3, 2) == [
            (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)
        ]
        assert monomials_of_degree(0, 0) == [()]
        assert monomials_of_degree(0, 2) == []
        assert monomials_of_degree(2, 0) == [(0, 0)]

    def test_monomials_of_a_wide_ring(self):
        monos = monomials_of_degree(3000, 1)
        assert len(monos) == 3000
        assert monos[0][0] == 1 and monos[-1][-1] == 1

    def test_nullspace_of_rank_one_system(self):
        rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        basis = rational_nullspace(rows)
        assert len(basis) == 1
        x, y = basis[0]
        assert x + 2 * y == 0

    def test_nullspace_trivial(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert rational_nullspace(rows) == []

    def test_nullspace_of_an_empty_matrix_is_refused(self):
        with pytest.raises(ValueError):
            rational_nullspace([])

    @pytest.mark.parametrize("seed", range(0, 200, 10))
    def test_nullspace_matches_the_reference(self, seed):
        for case in range(seed, seed + 10):
            rows = low_rank_matrix(case)
            assert rational_nullspace(rows) == reference_nullspace(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            # Mod 2^61 - 1 the first column vanishes, so the pivot moves.
            [[Fraction(MERSENNE_61), Fraction(1)]],
            # The prime 2^61 - 1 divides a denominator; taken as zero it
            # would make the rows independent.
            [[Fraction(1), Fraction(1, MERSENNE_61)], [Fraction(MERSENNE_61), Fraction(1)]],
            # The kernel entry 2^70 / 3^40 needs a modulus beyond 2^134.
            [[Fraction(3**40), Fraction(-(2**70))]],
            [[Fraction(0)] * 3] * 2,
            [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(7)]],
        ],
        ids=["wrong-first-pivot", "prime-divides-denominator", "three-primes", "zero", "wide"],
    )
    def test_nullspace_named_cases(self, rows):
        basis = rational_nullspace(rows)
        assert basis == reference_nullspace(rows)
        assert all(type(x) is Fraction for vec in basis for x in vec)
