"""Area relations: elimination route, oracle route, and shape theorems."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction
from functools import partial
from math import lcm

import pytest

from areapoly import groebner, variety
from areapoly.areamap import gauged_areas, random_drawing, random_integer_drawing
from areapoly.corpus import PRINTED_RELATION, relation_corpus
from areapoly.groebner import GuardConfig, ResourceGuardError
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
    FamilyIdentityError,
    NameCollisionError,
    OracleError,
    RelationShapeError,
    area_values,
    areas_algebraically_independent,
    diagonal_relation_formula,
    doubling_substitution,
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

    # sha256 of the canonical text of each corpus relation, z_T then p_T.
    DIGESTS = {
        "center-fan": (
            "ae0d2d75c395525d9947da05e272c26d825ea34f0d65442e38a940636b543176",
            "5af35f7fa8ec14f77f404805a6bf510514e232eba1a826e8cf7c59e408cd3155",
        ),
        "diagonal-0": (
            "69a4bec931d0d5d1ef3dd328deab39a70b440c5efd53e60af09e64376bc59c4b",
            "53416d5beb53991461b943d92ae3f0605ec2851f7fea51733288ac3d45c42654",
        ),
        "diagonal-1": (
            "df1ebb1c59fd88f073666fe64ed0646c368fc8535592b1968dc5f5874b2abdaa",
            "9d45c0f1d2e5c7b0271c97a36691177f9fccc6ced1b2e602359de87a75e6c72d",
        ),
        "diagonal-2": (
            "f6bd2d6c884fc9f9e604920e46c87f4ff43c04ba92c70ba4bdea023f1c99ca05",
            "0fe8e356efb2abf1d081bb25c2b5c0c014202c62ea66613d00672cc6105f45a2",
        ),
        "refined-diagonal-1": (
            "45481ad182bf0930078a39f157fed339f017f8c2e028ae6a061ebdd6a7421d44",
            "489901ee27cb124e197c13d55e96176fe21cbfedc2616dbb2d326ac696d4c9b1",
        ),
    }

    @pytest.mark.parametrize("key", sorted(DIGESTS))
    def test_corpus_relations_keep_their_digests(
        self, key, trapezoid_relations, parallelogram_relations
    ):
        texts = [canonical_str(r[key]) for r in (trapezoid_relations, parallelogram_relations)]
        assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == self.DIGESTS[key]

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

    def test_basis_guard_trips_before_the_gauge_ring_is_built(self, monkeypatch):
        def unreachable(tri):
            raise AssertionError("the gauge ring was built")

        monkeypatch.setattr(variety, "gauged_areas", unreachable)
        with pytest.raises(ResourceGuardError, match="exceeded 6 elements"):
            trapezoid_polynomial(diagonal_family(2), guard=GuardConfig(max_basis=6))

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


def single_refinements() -> dict[str, CombinatorialTriangulation]:
    """The eight single refinements of the one-step staircase and the fan."""
    out = {}
    for key, base in (("diagonal-1", diagonal_family(1)), ("center-fan", center_fan())):
        for name in base.triangle_names:
            out[f"{key}/{name}"] = barycentric_refine(base, name)
    return out


def certified_inputs() -> dict[str, CombinatorialTriangulation]:
    tris = {**relation_corpus(), **single_refinements()}
    twice = barycentric_refine(barycentric_refine(diagonal_family(1), "A1"), "B2")
    tris["diagonal-1/A1/B2"] = twice
    return tris


class TestCertifiedStop:
    """The elimination stops at a certified generator; the full pair loop
    is the reference route."""

    def test_height_one_step_runs_for_zt_and_pt_only(self, monkeypatch, corpus):
        flags = []
        real = variety.eliminate

        def spy(gens, names, guard, principal):
            flags.append(principal)
            return real(gens, names, guard=guard, principal=principal)

        monkeypatch.setattr(variety, "eliminate", spy)
        tri = corpus["diagonal-1"]
        trapezoid_polynomial(tri)
        parallelogram_polynomial(tri)
        assert areas_algebraically_independent(tri)
        assert flags == [True, True, False]

    @pytest.mark.parametrize("key", sorted(certified_inputs()))
    def test_stop_matches_the_full_run(self, key, monkeypatch, sieve_verdicts):
        tri = certified_inputs()[key]
        stopped = [trapezoid_polynomial(tri), parallelogram_polynomial(tri)]
        # Each relation is certified at its first candidate.
        assert len(sieve_verdicts) == 2 and None not in sieve_verdicts
        real = variety.eliminate
        monkeypatch.setattr(
            variety,
            "eliminate",
            lambda gens, names, guard, principal: real(gens, names, guard=guard),
        )
        assert [trapezoid_polynomial(tri), parallelogram_polynomial(tri)] == stopped
        assert len(sieve_verdicts) == 2

    def test_a_triangle_named_u_keeps_its_jacobian_row(self, sieve_verdicts):
        # In parallelogram mode the triangle U is a row of its own, so the
        # rank is one less than the row count and p_T stops at a certified
        # generator.
        parallelogram_polynomial(renamed(diagonal_family(1), "A1", FRAME_VARIABLE))
        assert sieve_verdicts and None not in sieve_verdicts

    def test_four_steps_match_closed_formula(self):
        relation = trapezoid_polynomial(diagonal_family(4))
        assert relation == diagonal_relation_formula(4)

    @staticmethod
    def normal_forms(builder, tri, monkeypatch) -> int:
        """How many normal forms the elimination behind ``builder`` takes."""
        calls = []
        real = groebner._heap_reduce

        def counted(*args):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(groebner, "_heap_reduce", counted)
        builder(tri)
        return len(calls)

    def test_pairs_toward_the_kept_block_reach_the_stop_sooner(self, monkeypatch):
        # 37 normal forms; sugar alone took 202.
        assert self.normal_forms(trapezoid_polynomial, diagonal_family(4), monkeypatch) <= 60

    def test_the_lone_generator_gets_no_finishing_reduction(self, monkeypatch):
        finishing = []
        real_finalize, real_reduce = groebner._finalize, groebner._heap_reduce

        def finalize(basis, *args):
            finishing.append(0)
            return real_finalize(basis, *args)

        def counted(*args):
            if finishing:
                finishing[-1] += 1
            return real_reduce(*args)

        monkeypatch.setattr(groebner, "_finalize", finalize)
        monkeypatch.setattr(groebner, "_heap_reduce", counted)
        trapezoid_polynomial(diagonal_family(2))
        assert finishing == [0]

    def test_a_run_without_the_stop_keeps_sugar(self, monkeypatch):
        assert self.normal_forms(areas_algebraically_independent, diagonal_family(1), monkeypatch) == 14

    # sha256 of the canonical text, taken before the pair key weighed the
    # eliminated block: the selection must not move the relation.
    @pytest.mark.parametrize(
        "builder, digest",
        [
            (
                trapezoid_polynomial,
                "25db5f765e77657283cbe8a0b54223bac64077432f2e35e517bdbffa6bee6390",
            ),
            (
                parallelogram_polynomial,
                "3472c48aaa98b5afac8c0649e0388d8a29a42c088364991bace21e29162bea67",
            ),
        ],
    )
    def test_five_steps_keep_their_digests(self, builder, digest):
        text = canonical_str(builder(diagonal_family(5)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "parallelogram, key",
        [
            *itertools.product(
                [False, True], sorted({**relation_corpus(), **single_refinements()})
            ),
            (True, "named-U"),
            (True, "named-t"),
        ],
    )
    def test_jacobian_rows_are_partial_derivatives(self, key, parallelogram):
        tri = {
            **relation_corpus(),
            **single_refinements(),
            "named-U": renamed(diagonal_family(2), "B2", FRAME_VARIABLE),
            "named-t": renamed(diagonal_family(2), "B2", "t"),
        }[key]
        coords, images = variety._mode_images(tri, not parallelogram, parallelogram)
        point, rows = variety._jacobian(coords, images, 3)
        # The reference reads the free gauge, with t = 1 in parallelogram mode.
        gauge = gauged_areas(tri)
        polys = [gauge.frame, *gauge.areas.values()]
        names = list(gauge.ring.names)
        if parallelogram:
            polys, names = polys[1:], names[1:]
        assert list(point) == list(coords.names) == names
        assert all(isinstance(v, int) and abs(v) <= 1 << 40 for v in point.values())
        at = {**point, "t": 1} if parallelogram else point
        assert rows == [[p.partial(n).evaluate(at) for n in names] for p in polys]


class TestShapeTheorems:
    @pytest.mark.parametrize("key", sorted(FROZEN_TRAPEZOID))
    def test_frame_monic(self, key, trapezoid_relations):
        assert is_frame_monic(trapezoid_relations[key])

    @pytest.mark.parametrize("key", sorted(FROZEN_TRAPEZOID))
    def test_primitive_part_of_a_scaled_relation_is_frame_monic(self, key, trapezoid_relations):
        # U leads the ring, so U^d is the canonically first term and the
        # primitive part's positive sign there is the frame-monic sign.
        relation = trapezoid_relations[key]
        scaled = relation * Fraction(-3, 2)
        assert scaled.content_and_primitive() == (Fraction(-3, 2), relation)

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


def reference_profile(relation: Poly) -> dict[str, tuple[int, int]]:
    """The substitute-and-power route that ``frame_power_profile`` took
    before it compared the restricted terms with binomial coefficients."""
    frame = FRAME_VARIABLE
    degree = relation.total_degree()
    frame_poly = Poly.variable(relation.ring, frame)
    profile = {}
    for name in relation.ring.names:
        if name == frame:
            continue
        zeroed = {n: 0 for n in relation.ring.names if n not in (frame, name)}
        restricted = relation.substitute(zeroed)
        b = max((m[relation.ring.index(name)] for m in restricted.terms), default=-1)
        a = degree - b
        if a < 0:
            raise RelationShapeError(f"restriction to {name} exceeds the total degree")
        expected = (frame_poly**a) * ((frame_poly + Poly.variable(relation.ring, name)) ** b)
        if restricted != expected:
            raise RelationShapeError(
                f"restriction to {name} is {canonical_str(restricted)}, "
                f"not of the shape {frame}^a * ({frame} + {name})^b"
            )
        profile[name] = (a, b)
    return profile


def shaped_negatives(relation: Poly) -> list[Poly]:
    """Relations whose restrictions are all nonzero, most of them off the shape."""
    ring, d = relation.ring, relation.total_degree()
    frame = Poly.variable(ring, FRAME_VARIABLE)
    first, last = (Poly.variable(ring, n) for n in ring.names[1::len(ring) - 2])
    return [
        relation + frame ** (d - 1) * first,
        relation + frame**d,
        relation + last**d,
        relation + frame ** (d - 1),
        relation * 3,
    ]


class TestProfileReference:
    """``frame_power_profile`` against the substitute-and-power route."""

    @staticmethod
    def check(relation: Poly) -> None:
        try:
            want = reference_profile(relation)
        except RelationShapeError as exc:
            with pytest.raises(RelationShapeError) as got:
                frame_power_profile(relation)
            assert str(got.value) == str(exc)
        else:
            assert frame_power_profile(relation) == want

    @pytest.mark.parametrize("key", sorted(relation_corpus()))
    def test_corpus(self, key, trapezoid_relations):
        relation = trapezoid_relations[key]
        self.check(relation)
        for negative in shaped_negatives(relation):
            self.check(negative)

    @pytest.mark.parametrize("n", [3, 4])
    def test_longer_staircases(self, n):
        relation = diagonal_relation_formula(n)
        self.check(relation)
        for negative in shaped_negatives(relation):
            self.check(negative)

    def test_zero_restriction_is_a_shape_error(self):
        ring = relation_ring(diagonal_family(0), with_frame=True)
        for text in ("A1*B1 - U*B1", "0"):
            with pytest.raises(RelationShapeError) as got:
                frame_power_profile(parse_polynomial(text, ring))
            assert str(got.value) == "restriction to A1 is 0, not of the shape U^a * (U + A1)^b"

    def test_zero_parallelogram_relation_has_no_quotient(self, trapezoid_relations):
        ring = relation_ring(diagonal_family(0), with_frame=False)
        with pytest.raises(FamilyIdentityError, match="parallelogram relation is zero"):
            family_quotient(trapezoid_relations["diagonal-0"], Poly.zero(ring))

    def test_zero_trapezoid_relation_has_no_quotient(self, parallelogram_relations):
        ring = relation_ring(diagonal_family(0))
        with pytest.raises(FamilyIdentityError, match="trapezoid relation is zero"):
            family_quotient(Poly.zero(ring), parallelogram_relations["diagonal-0"])

    def test_doubling_bound_refuses_before_expanding(self, monkeypatch):
        def refused(relation):
            raise AssertionError("nothing is expanded past the bound")

        monkeypatch.setattr(variety, "doubling_substitution", refused)
        tri = diagonal_family(6)
        trapezoid = parse_polynomial("U^15", relation_ring(tri))
        parallelogram = parse_polynomial("A1", relation_ring(tri, with_frame=False))
        with pytest.raises(ResourceGuardError, match="37442160 terms, more than 200000"):
            family_quotient(trapezoid, parallelogram)

    @pytest.mark.parametrize("n", range(3, 7))
    def test_closed_form_relations_are_within_the_doubling_bound(self, monkeypatch, n):
        # The bound reads only the ring and the degrees, so U^(n+1) stands
        # for the closed form of diagonal-n, whose degree is n + 1.
        class Expanded(Exception):
            pass

        def expanded(relation):
            raise Expanded

        monkeypatch.setattr(variety, "doubling_substitution", expanded)
        tri = diagonal_family(n)
        trapezoid = parse_polynomial(f"U^{n + 1}", relation_ring(tri))
        parallelogram = parse_polynomial("A1", relation_ring(tri, with_frame=False))
        with pytest.raises(Expanded):
            family_quotient(trapezoid, parallelogram)

    def test_zero_relation_does_not_vanish(self, corpus):
        ring = relation_ring(corpus["diagonal-0"])
        with pytest.raises(RelationShapeError, match="relation is zero"):
            verify_vanishing(Poly.zero(ring), corpus["diagonal-0"])


INVALID_CASES = ["undeclared-vertex", "shared-name", "isolated-vertex"]


def invalid_triangulation(case: str) -> CombinatorialTriangulation:
    if case == "undeclared-vertex":
        return dataclasses.replace(diagonal_family(1), vertices=CORNERS)
    if case == "isolated-vertex":
        base = diagonal_family(1)
        return dataclasses.replace(base, vertices=(*base.vertices, "zz"))
    base = diagonal_family(0)
    same = tuple(dataclasses.replace(t, name="A1") for t in base.triangles)
    return dataclasses.replace(base, triangles=same)


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

    @pytest.mark.parametrize("case", INVALID_CASES)
    def test_jacobian_rank_refuses_invalid_triangulations(self, case):
        with pytest.raises(InvalidTriangulationError):
            independence_rank(invalid_triangulation(case))

    @pytest.mark.parametrize("case", INVALID_CASES)
    def test_gauge_parameter_count_refuses_invalid_triangulations(self, case):
        with pytest.raises(InvalidTriangulationError):
            gauge_parameter_count(invalid_triangulation(case))

    def test_jacobian_rank_refuses_a_triangle_named_u_only_with_the_frame(self):
        tri = renamed(diagonal_family(1), "A1", FRAME_VARIABLE)
        with pytest.raises(NameCollisionError, match="collide with the frame variable"):
            independence_rank(tri)
        assert independence_rank(tri, parallelogram=True) == 3

    @pytest.mark.parametrize("key", ["diagonal-0", "diagonal-1", "center-fan"])
    def test_areas_independent_without_frame(self, key, corpus):
        assert areas_algebraically_independent(corpus[key])

    def test_three_step_areas_independent_without_frame(self):
        assert areas_algebraically_independent(diagonal_family(3))

    @pytest.mark.parametrize("key", sorted({**relation_corpus(), **single_refinements()}))
    def test_free_ratio_jacobian_without_frame_has_full_rank(self, key):
        """The Jacobian certificate that could replace the frame-free
        elimination: full rank, one per triangle, where the elimination
        finds no relation."""
        tri = {**relation_corpus(), **single_refinements()}[key]
        rows = variety._jacobian(*variety._mode_images(tri, False, False), 0)[1]
        assert variety._rank(rows) == len(tri.triangles)
        assert areas_algebraically_independent(tri) is True

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
        # the areas), which the trapezoid area map refutes exactly.  The
        # solved rows of degree 1 are exactly the parallelogram ones, and
        # no drawing is made after them.
        tri = diagonal_family(2)
        forced = len(relation_ring(tri)) + variety.ORACLE_EXTRA_ROWS
        calls = itertools.count()

        def sampler(tri, rng, parallelogram=False):
            return random_integer_drawing(tri, rng, parallelogram=next(calls) < forced)

        monkeypatch.setattr(variety, "random_integer_drawing", sampler)
        with pytest.raises(OracleError, match="degree-1 candidate does not vanish on the area map"):
            interpolated_relation(tri, seed=0)
        assert next(calls) == forced

    def test_oracle_refuses_a_kernel_the_area_map_does_not_annihilate(self, monkeypatch):
        # A line claimed at degree 1: the candidate U, whose image -lam is not zero.
        monkeypatch.setattr(
            variety, "rational_nullspace", lambda rows: [[Fraction(1)] + [Fraction(0)] * 4]
        )
        with pytest.raises(OracleError, match="degree-1 candidate does not vanish on the area map"):
            interpolated_relation(diagonal_family(1), seed=0)

    def test_oracle_draws_only_the_rows_it_solves(self, monkeypatch):
        # Diagonal-1 z_T has 5 variables and a relation of degree 2: the
        # 5 + 8 drawings of degree 1 are reused and extended to 15 + 8 at
        # degree 2, and the candidate is proved on the area map, not drawn.
        tri = diagonal_family(1)
        drawn = itertools.count()
        solved = []

        def sampler(tri, rng, parallelogram=False):
            next(drawn)
            return random_integer_drawing(tri, rng, parallelogram)

        def nullspace(rows):
            solved.append(len(rows))
            return rational_nullspace(rows)

        monkeypatch.setattr(variety, "random_integer_drawing", sampler)
        monkeypatch.setattr(variety, "rational_nullspace", nullspace)
        relation = interpolated_relation(tri, seed=0)
        assert canonical_str(relation) == FROZEN_TRAPEZOID["diagonal-1"]
        assert variety.ORACLE_EXTRA_ROWS == 8
        assert solved == [5 + 8, 15 + 8]
        assert next(drawn) == 15 + 8

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
            for frame in (True, False):
                values = area_values(tri, drawing.points, frame)
                assert all(type(v) is Fraction for v in values.values())
                assert list(values.items()) == list(reference_values(drawing, frame).items())

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
        seed = f"{key} {parallelogram}"
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(50):
            scale, points = random_integer_drawing(tri, rng, parallelogram=parallelogram)
            areas = area_values(tri, points)
            assert all(type(a) is int for a in areas.values())
            drawing = random_drawing(tri, twin, parallelogram=parallelogram)
            coords = [c for point in drawing.points.values() for c in point]
            assert scale == lcm(*(c.denominator for c in coords))
            assert [(n, Fraction(a, scale * scale)) for n, a in areas.items()] == list(
                reference_values(drawing).items()
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
            total = sum(map(drawing.triangle_area, tri.triangle_names))
            assert area_values(tri, drawing.points)[FRAME_VARIABLE] == -total / 2

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

    @staticmethod
    def reference_failure(relation, tri, seed, count, parallelogram=False) -> str | None:
        """The failure text from a plain ``Fraction`` sum on each ``random_drawing``."""
        rng = random.Random(seed)
        names = relation.ring.names
        for index in range(count):
            values = area_values(tri, random_drawing(tri, rng, parallelogram).points)
            total = Fraction(0)
            for mono, coeff in relation.terms.items():
                for name, e in zip(names, mono):
                    coeff *= values[name] ** e if e else 1
                total += coeff
            if total:
                return f"relation evaluates to {total} on drawing {index} (seed {seed})"
        return None

    @pytest.mark.parametrize("key", ["diagonal-1", "diagonal-2", "center-fan"])
    def test_failure_texts_match_a_fraction_sum(self, corpus, trapezoid_relations, key):
        """A non-homogeneous wrong relation and one with fractional
        coefficients fail on the same drawing with the same value."""
        relation, tri = trapezoid_relations[key], corpus[key]
        ring = relation.ring
        wrongs = [
            relation + 1,
            relation * Fraction(2, 3)
            + Poly.variable(ring, ring.names[-1]) ** 2 * Fraction(-5, 7)
            + Fraction(1, 6),
        ]
        for wrong in wrongs:
            for seed, parallelogram in itertools.product(range(4), (False, True)):
                want = self.reference_failure(wrong, tri, seed, 10, parallelogram)
                with pytest.raises(RelationShapeError) as caught:
                    verify_vanishing(wrong, tri, seed=seed, count=10, parallelogram=parallelogram)
                assert str(caught.value) == want

    def test_used_variable_without_a_value(self, corpus, trapezoid_relations):
        relation = trapezoid_relations["diagonal-1"]
        ring = Ring((*relation.ring.names, "Z"))
        lifted = relation.substitute({}, ring=ring) + Poly.variable(ring, "Z")
        with pytest.raises(KeyError) as caught:
            verify_vanishing(lifted, corpus["diagonal-1"], seed=1, count=3)
        assert str(caught.value) == "\"no value for variable 'Z'\""
        assert verify_vanishing(lifted, corpus["diagonal-1"], seed=1, count=0) == 0

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


def rank_inputs() -> dict[str, CombinatorialTriangulation]:
    """The corpus, the six single refinements of the two-step staircase and
    the three-step staircase."""
    tris = dict(relation_corpus())
    base = diagonal_family(2)
    for name in base.triangle_names:
        tris[f"diagonal-2/{name}"] = barycentric_refine(base, name)
    tris["diagonal-3"] = diagonal_family(3)
    return tris


# Jacobian rank (full, parallelogram) per input, the same for seeds 0-4.
GOLDEN_RANKS = {
    "diagonal-0": (2, 1),
    "diagonal-1": (4, 3),
    "diagonal-2": (6, 5),
    "center-fan": (4, 3),
    "refined-diagonal-1": (6, 5),
    **{f"diagonal-2/{name}": (8, 7) for name in diagonal_family(2).triangle_names},
    "diagonal-3": (8, 7),
}

# The oracle's relation at seed 0 on every input of the ``oracle`` benchmark
# workload: the corpus in both modes (no two-step z_T) and the parallelogram
# relation of each single refinement of the one-step staircase and the fan.
GOLDEN_ORACLE = {
    ("diagonal-0", "zt"): "U + B1",
    ("diagonal-0", "pt"): "A1 - B1",
    ("diagonal-1", "zt"): FROZEN_TRAPEZOID["diagonal-1"],
    ("diagonal-1", "pt"): "A1 - A2 - B1 + B2",
    ("diagonal-2", "pt"): FROZEN_PARALLELOGRAM["diagonal-2"],
    ("center-fan", "zt"): PRINTED_RELATION,
    ("center-fan", "pt"): "B1 - B2 + B3 - B4",
    ("refined-diagonal-1", "zt"): FROZEN_TRAPEZOID["refined-diagonal-1"],
    ("refined-diagonal-1", "pt"): "A1a + A1b + A1c - A2 - B1 + B2",
    ("diagonal-1/A1", "pt"): "A1a + A1b + A1c - A2 - B1 + B2",
    ("diagonal-1/A2", "pt"): "A1 - A2a - A2b - A2c - B1 + B2",
    ("diagonal-1/B1", "pt"): "A1 - A2 - B1a - B1b - B1c + B2",
    ("diagonal-1/B2", "pt"): "A1 - A2 - B1 + B2a + B2b + B2c",
    ("center-fan/B1", "pt"): "B1a + B1b + B1c - B2 + B3 - B4",
    ("center-fan/B2", "pt"): "B1 - B2a - B2b - B2c + B3 - B4",
    ("center-fan/B3", "pt"): "B1 - B2 + B3a + B3b + B3c - B4",
    ("center-fan/B4", "pt"): "B1 - B2 + B3 - B4a - B4b - B4c",
}


def oracle_input(label: str) -> CombinatorialTriangulation:
    if "/" not in label:
        return relation_corpus()[label]
    key, name = label.split("/")
    base = diagonal_family(1) if key == "diagonal-1" else center_fan()
    return barycentric_refine(base, name)


class TestGoldenOutputs:
    @pytest.mark.parametrize("key", sorted(GOLDEN_RANKS))
    def test_independence_rank(self, key):
        tri = rank_inputs()[key]
        full, parallelogram = GOLDEN_RANKS[key]
        assert [independence_rank(tri, seed=s) for s in range(5)] == [full] * 5
        assert [
            independence_rank(tri, seed=s, parallelogram=True) for s in range(5)
        ] == [parallelogram] * 5

    @pytest.mark.parametrize("label, kind", sorted(GOLDEN_ORACLE))
    def test_interpolated_relation(self, label, kind):
        relation = interpolated_relation(oracle_input(label), seed=0, parallelogram=kind == "pt")
        assert canonical_str(relation) == GOLDEN_ORACLE[label, kind]

    def test_interpolated_relation_on_ten_seeds_is_the_eliminated_one(self):
        for label, kind in sorted(GOLDEN_ORACLE):
            tri = oracle_input(label)
            pt = kind == "pt"
            expected = (parallelogram_polynomial if pt else trapezoid_polynomial)(tri)
            for seed in range(10):
                relation = interpolated_relation(tri, seed=seed, parallelogram=pt)
                assert relation in (expected, -expected), (label, kind, seed)


def reference_values(drawing, frame: bool = True) -> dict[str, Fraction]:
    """The frame area for ``U`` (with ``frame``), then every triangle's own
    area, which wins over the frame for a triangle named ``U``; read by
    ``Drawing.frame_area`` and ``Drawing.triangle_area``."""
    values = {FRAME_VARIABLE: drawing.frame_area()} if frame else {}
    values.update((n, drawing.triangle_area(n)) for n in drawing.triangulation.triangle_names)
    return values


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

    @pytest.mark.parametrize("name", ["5", "A*B", "A 1", "", "1A", "B-1", "é"])
    def test_names_that_are_not_variables_are_rejected(self, name):
        tri = renamed(diagonal_family(1), "B1", name)
        calls = [partial(builder, tri) for builder in self.BUILDERS]
        calls += [partial(relation_ring, tri, frame) for frame in (True, False)]
        calls += [partial(interpolated_relation, tri, 0, mode) for mode in (False, True)]
        for call in calls:
            with pytest.raises(NameCollisionError, match="not variable names"):
                call()

    def test_every_built_in_name_is_a_variable(self):
        tris = [*relation_corpus().values(), *single_refinements().values(), diagonal_family(5)]
        for tri in tris:
            assert relation_ring(tri, with_frame=False).names == tri.triangle_names


def reference_gauged_areas(tri: CombinatorialTriangulation):
    """Ring, frame, opposite frame and areas as doubled areas of ``Poly`` points."""
    ring = Ring(("t", "lam", *(f"{c}_{v}" for v in tri.interior_vertices() for c in "xy")))
    zero, one = Poly.zero(ring), Poly.one(ring)
    t, lam = Poly.variable(ring, "t"), Poly.variable(ring, "lam")
    coords = {"p": (zero, zero), "q": (one, zero), "s": (zero, lam), "r": (t, lam)}
    for v in tri.interior_vertices():
        coords[v] = (Poly.variable(ring, f"x_{v}"), Poly.variable(ring, f"y_{v}"))

    def area(a, b, c):
        (ax, ay), (bx, by), (cx, cy) = coords[a], coords[b], coords[c]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    areas = {}
    for triangle in tri.triangles:
        areas[triangle.name] = area(*triangle.vertices)
    return ring, area("p", "s", "q"), area("q", "s", "r"), areas


def gauge_inputs() -> dict[str, CombinatorialTriangulation]:
    tris = {**relation_corpus(), "diagonal-5": diagonal_family(5)}
    for name in diagonal_family(2).triangle_names:
        tris[f"diagonal-2/{name}"] = barycentric_refine(diagonal_family(2), name)
    return tris


class TestIntegerGauge:
    """The gauge and the generators summed on exponent tuples equal the
    ``Poly`` arithmetic they replace."""

    @pytest.mark.parametrize("key", sorted(gauge_inputs()))
    def test_gauge_matches_poly_points(self, key):
        tri = gauge_inputs()[key]
        ring, frame, opposite, areas = reference_gauged_areas(tri)
        gauge = gauged_areas(tri)
        assert (gauge.triangulation, gauge.ring, gauge.frame) == (tri, ring, frame)
        assert gauge.opposite_frame == opposite
        assert gauge.areas == areas and list(gauge.areas) == list(areas)

    def test_repeated_name_keeps_the_first_place_and_the_last_area(self):
        tri = renamed(diagonal_family(2), "A3", "A1")
        areas = reference_gauged_areas(tri)[3]
        gauge = gauged_areas(tri)
        assert list(gauge.areas) == list(areas) == ["A1", "A2", "B1", "B2", "B3"]
        assert gauge.areas == areas
        assert gauge.areas["A1"] == areas["A1"] != gauged_areas(diagonal_family(2)).areas["A1"]

    @pytest.mark.parametrize("key", [*sorted(gauge_inputs()), "named-t"])
    def test_ratio_fixed_gauge_is_the_free_one_at_t_one(self, key):
        tri = {**gauge_inputs(), "named-t": renamed(diagonal_family(2), "B2", "t")}[key]
        free, fixed = gauged_areas(tri), gauged_areas(tri, ratio_fixed=True)
        assert (fixed.triangulation, fixed.ring) == (tri, free.ring.without(["t"]))

        def at_one(poly):
            return poly.substitute({"t": 1}, ring=fixed.ring)

        assert (fixed.frame, fixed.opposite_frame) == (at_one(free.frame), at_one(free.opposite_frame))
        assert fixed.areas == {n: at_one(a) for n, a in free.areas.items()}
        assert list(fixed.areas) == list(free.areas)

    @pytest.mark.parametrize(
        "key, frame, ratio_fixed",
        [
            *((key, True, False) for key in sorted(gauge_inputs())),
            *((key, False, True) for key in sorted(gauge_inputs())),
            *((key, False, False) for key in sorted(gauge_inputs())),
            ("named-U", False, True),
            ("named-t", False, True),
        ],
    )
    def test_generators_match_the_ring_map(self, monkeypatch, key, frame, ratio_fixed):
        tri = {
            **gauge_inputs(),
            "named-U": renamed(diagonal_family(2), "B2", FRAME_VARIABLE),
            "named-t": renamed(diagonal_family(2), "B2", "t"),
        }[key]
        seen = []
        monkeypatch.setattr(
            variety, "eliminate", lambda gens, names, guard, principal: seen.append(gens) or []
        )
        variety._eliminate_areas(tri, frame, ratio_fixed, GuardConfig())
        (gens,) = seen
        gauge = gauged_areas(tri)
        images = {FRAME_VARIABLE: gauge.frame} if frame else {}
        images.update(gauge.areas)
        big = gens[0].ring
        fixed = {"t": 1} if ratio_fixed else {}
        assert big.names[len(big) - len(images) :] == tuple(images)
        want = [Poly.variable(big, n) - a.substitute(fixed, ring=big) for n, a in images.items()]
        assert [list(g.terms.items()) for g in gens] == [list(w.terms.items()) for w in want]
        assert all(type(c) is Fraction for g in gens for c in g.terms.values())


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


def integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    """Each row times the lcm of its denominators: the same nullspace."""
    out = []
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


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
        rows = [[1, 2], [2, 4]]
        basis = rational_nullspace(rows)
        assert len(basis) == 1
        x, y = basis[0]
        assert x + 2 * y == 0

    def test_nullspace_trivial(self):
        assert rational_nullspace([[1, 0], [0, 1]]) == []

    def test_nullspace_of_an_empty_matrix_is_refused(self):
        with pytest.raises(ValueError):
            rational_nullspace([])

    @pytest.mark.parametrize("seed", range(0, 200, 10))
    def test_nullspace_matches_the_reference(self, seed):
        for case in range(seed, seed + 10):
            rows = low_rank_matrix(case)
            assert rational_nullspace(integer_rows(rows)) == reference_nullspace(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            # Mod 2^61 - 1 the first column vanishes, so the pivot moves.
            [[MERSENNE_61, 1]],
            # The same with a repeated row: the rank agrees mod 2^61 - 1,
            # the pivot does not.
            [[MERSENNE_61, 1], [MERSENNE_61, 1]],
            # The kernel entry 2^70 / 3^40 needs a modulus beyond 2^134.
            [[3**40, -(2**70)]],
            [[0] * 3] * 2,
            [[1, 2, 3], [2, 4, 7]],
        ],
        ids=["wrong-first-pivot", "repeated-wrong-pivot", "three-primes", "zero", "wide"],
    )
    def test_nullspace_named_cases(self, rows):
        basis = rational_nullspace(rows)
        assert basis == reference_nullspace([[Fraction(x) for x in row] for row in rows])
        assert all(type(x) is Fraction for vec in basis for x in vec)
