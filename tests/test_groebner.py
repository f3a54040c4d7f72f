"""Groebner bases, elimination, and resource guards."""

from __future__ import annotations

import itertools
import random

import pytest

from areapoly.groebner import (
    GuardConfig,
    NotPrincipalError,
    ResourceGuardError,
    _Packing,
    _linear_substitutions,
    buchberger,
    eliminate,
    principal_generator,
)
from areapoly.poly import (
    Poly,
    Ring,
    block_key,
    canonical_str,
    deglex_key,
    grevlex_key,
    lex_key,
    mono_divides,
    mono_mul,
    parse_polynomial,
)

XYZ = Ring(("x", "y", "z"))
YZ = Ring(("y", "z"))


def poly(text: str, ring: Ring = XYZ) -> Poly:
    return parse_polynomial(text, ring)


def twisted_cubic() -> list[Poly]:
    return [poly("y - x^2"), poly("z - x^3")]


class TestBuchberger:
    def test_twisted_cubic_reduced_basis(self):
        basis = buchberger(twisted_cubic())
        assert [canonical_str(b) for b in basis] == [
            "-x*z + y^2",
            "x*y - z",
            "x^2 - y",
        ]

    def test_generator_order_is_irrelevant(self):
        reference = buchberger(twisted_cubic())
        for permutation in itertools.permutations(twisted_cubic()):
            assert buchberger(list(permutation)) == reference

    def test_ideal_membership_via_reduced_uniqueness(self):
        gens = twisted_cubic()
        member = poly("y^3 - z^2")
        assert buchberger(gens + [member]) == buchberger(gens)
        non_member = poly("y^3 - z^2 + 1")
        assert buchberger(gens + [non_member]) != buchberger(gens)

    def test_unit_ideal_collapses(self):
        basis = buchberger([poly("x"), poly("x + 1")])
        assert [canonical_str(b) for b in basis] == ["1"]

    def test_zero_generators_ignored(self):
        assert buchberger([Poly.zero(XYZ)]) == []

    def test_lex_order_gives_triangular_basis(self):
        basis = buchberger(twisted_cubic(), key=lex_key)
        leading = [canonical_str(b) for b in basis]
        assert "y^3 - z^2" in leading

    def test_non_monic_generators(self):
        # Leading coefficients other than one make the fraction-free
        # reduction rescale the work polynomial and the remainder.
        gens = [poly("2*x^2 - 3*y*z"), poly("3*x*y - 5*z^2 + x"), poly("7*y^2 - 2*x*z")]
        assert [canonical_str(b) for b in buchberger(gens)] == [
            "-2/7*x*z + y^2",
            "x*y - 5/3*z^2 + 1/3*x",
            "x^2 - 3/2*y*z",
            "y*z^2 - 35/78*z^2 + 7/78*x",
            "x*z^2 - 21/52*y*z",
            "z^4 - 147/1352*y*z",
        ]
        assert [canonical_str(b) for b in buchberger(gens, key=lex_key)] == [
            "z^7 - 441/35152*z^4",
            "-1352/147*z^4 + y*z",
            "70304/2401*z^6 - 10/7*z^3 + y^2",
            "35152/343*z^5 - 5*z^2 + x",
        ]


class TestEliminate:
    def test_twisted_cubic_projection(self):
        basis = eliminate(twisted_cubic(), ["x"])
        assert [canonical_str(b) for b in basis] == ["y^3 - z^2"]

    def test_linear_presubstitution_path(self):
        basis = eliminate([poly("y - x - 1"), poly("z - y^2")], ["y"])
        assert [canonical_str(b) for b in basis] == ["x^2 + 2*x - z + 1"]

    def test_scaled_linear_generator(self):
        basis = eliminate([poly("3*y - x"), poly("z - y^2")], ["y"])
        assert [canonical_str(b) for b in basis] == ["x^2 - 9*z"]

    def test_elimination_of_everything_nontrivial(self):
        basis = eliminate([poly("x - 1"), poly("y - x")], ["x", "y", "z"])
        assert basis == []

    def test_zero_ideal_after_elimination(self):
        basis = eliminate([poly("y - x^2")], ["x"])
        assert basis == []

    def test_result_lives_in_kept_ring(self):
        basis = eliminate(twisted_cubic(), ["x"])
        assert basis[0].ring.names == ("y", "z")

    def test_non_prefix_variable_matches_prefix_case(self):
        yxz = Ring(("y", "x", "z"))
        gens = [poly("y - x^2", yxz), poly("z - x^3", yxz)]
        basis = eliminate(gens, ["x"])
        assert basis[0].ring.names == ("y", "z")
        assert basis == eliminate(twisted_cubic(), ["x"])


class TestLinearSubstitutions:
    def test_unusable_generators_are_left_alone(self):
        # x*y + z: the term holding x has a non-constant coefficient;
        # x^2 + x + y: x also occurs squared.
        gens = [poly("x*y + z"), poly("x^2 + x + y")]
        assert _linear_substitutions(gens, ["x"]) == (gens, ["x"])

    def test_a_later_generator_is_used(self):
        gens = [poly("x*y + z"), poly("2*x + y*z"), poly("x^2 - y")]
        pre, remaining = _linear_substitutions(gens, ["x"])
        assert remaining == []
        assert pre == [poly("-1/2*y^2*z + z", YZ), poly("1/4*y^2*z^2 - y", YZ)]

    def test_variables_are_tried_in_elim_order(self):
        # x + y + z serves for both y and z; the first listed one goes,
        # and what it leaves of x*y + z^2 is no longer linear in the other.
        gens = [poly("x + y + z"), poly("x*y + z^2")]
        assert _linear_substitutions(gens, ["z", "y"]) == (
            [poly("x^2 + 3*x*y + y^2", Ring(("x", "y")))],
            ["y"],
        )
        assert _linear_substitutions(gens, ["y", "z"]) == (
            [poly("-x^2 - x*z + z^2", Ring(("x", "z")))],
            ["z"],
        )

    def test_generators_are_scanned_before_variables(self):
        # The first generator serves only for y, the second only for z;
        # the first generator wins although z is listed first.
        gens = [poly("y + x*z"), poly("z + x*y")]
        assert _linear_substitutions(gens, ["z", "y"]) == (
            [poly("-x^2*z + z", Ring(("x", "z")))],
            ["z"],
        )


class TestPrincipal:
    def test_single_element(self):
        generator = principal_generator([poly("y^3 - z^2")])
        assert canonical_str(generator) == "y^3 - z^2"

    def test_rejects_non_principal(self):
        with pytest.raises(NotPrincipalError):
            principal_generator([poly("y"), poly("z")])
        with pytest.raises(NotPrincipalError):
            principal_generator([])


class TestGuards:
    def test_basis_size_guard(self):
        with pytest.raises(ResourceGuardError):
            ring = Ring(("a", "b", "c", "d"))
            gens = [
                parse_polynomial(text, ring)
                for text in (
                    "a^3 - b*c*d",
                    "b^3 - a*c*d",
                    "c^3 - a*b*d",
                    "d^3 - a*b*c",
                )
            ]
            buchberger(gens, guard=GuardConfig(max_basis=4, max_coeff_bits=10**6))

    def test_coefficient_bit_guard(self):
        # Reducing x^40 by a three-term linear polynomial with a huge
        # coefficient piles up mixed terms whose content stays small, so
        # the periodic bit check must fire.
        big = 10**21
        gens = [poly(f"x - {big}*y - 1"), poly("x^40")]
        with pytest.raises(ResourceGuardError):
            buchberger(gens, guard=GuardConfig(max_basis=500, max_coeff_bits=1000))

    @pytest.mark.parametrize("limits", [{"max_basis": 0}, {"max_coeff_bits": 0}])
    def test_limits_below_one_are_refused(self, limits):
        with pytest.raises(ValueError, match="at least 1"):
            GuardConfig(**limits)

    def test_coefficient_bit_guard_measures_after_stripping(self):
        # The one periodic check in this run meets coefficients of 139
        # bits whose joint content strips them to 5 bits, so the guard
        # passes at exactly 5 bits and trips at 4.
        gens = [
            poly("-34*y^3*z^2 - 28*x*y + 56*x^2*y*z"),
            poly("19*z^2 + 5*x^2*y^2 + 59*x*y^3*z^2 + 29*x*z^3"),
            poly("-16*x^2*y*z^3 - 51*x*y^2*z - 24*x^3*y^3*z - 18*x"),
        ]
        tight = buchberger(gens, guard=GuardConfig(max_coeff_bits=5))
        assert tight == buchberger(gens)
        with pytest.raises(ResourceGuardError):
            buchberger(gens, guard=GuardConfig(max_coeff_bits=4))


ORDERS = {
    "lex": lex_key,
    "deglex": deglex_key,
    "grevlex": grevlex_key,
    "block1": block_key(1),
    "block2": block_key(2),
    "block3": block_key(3),
}


def textbook_grevlex(mono: tuple[int, ...]) -> tuple:
    return (sum(mono), tuple(-e for e in reversed(mono)))


def textbook_block(k: int):
    return lambda mono: (*textbook_grevlex(mono[:k]), *textbook_grevlex(mono[k:]))


# The orders as textbook tuple keys, written apart from their weight rows.
TEXTBOOK = {
    "lex": lambda mono: mono,
    "deglex": lambda mono: (sum(mono), mono),
    "grevlex": textbook_grevlex,
    "block1": textbook_block(1),
    "block2": textbook_block(2),
    "block3": textbook_block(3),
}


def random_monomials(seed: int, n: int = 5, count: int = 60) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [tuple(rng.randrange(4) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("name", ORDERS)
class TestPacking:
    def packing(self, name: str, n: int = 5) -> _Packing:
        return _Packing(ORDERS[name].rows(n), n, width=8)

    def test_packed_order_is_the_key_order(self, name):
        packing = self.packing(name)
        monos = sorted(set(random_monomials(1)))
        by_textbook = sorted(monos, key=TEXTBOOK[name])
        assert sorted(monos, key=ORDERS[name]) == by_textbook
        assert sorted(monos, key=packing.pack) == by_textbook

    def test_packed_divisibility(self, name):
        packing = self.packing(name)
        monos = random_monomials(2, count=30)
        for a, b in itertools.product(monos, repeat=2):
            packed = not (packing.pack(b) - packing.pack(a)) & packing.guard
            assert packed == mono_divides(a, b), (a, b)

    def test_packed_product_and_round_trip(self, name):
        packing = self.packing(name)
        monos = random_monomials(3, count=30)
        for a, b in itertools.product(monos, repeat=2):
            assert packing.pack(a) + packing.pack(b) == packing.pack(mono_mul(a, b))
            assert packing.exponents(packing.pack(a)) == a


def test_unknown_order_is_refused():
    with pytest.raises(ValueError):
        buchberger(twisted_cubic(), key=lambda mono: mono)


def test_huge_exponent_is_exact():
    generator = Poly(XYZ, {(2**16, 1, 0): 3})
    assert buchberger([generator]) == [Poly(XYZ, {(2**16, 1, 0): 1})]


def test_degree_growth_beyond_the_first_packing():
    # Under lex, reducing x^50 by x - y^3 reaches y^150, past the fields
    # sized from the input degree.
    basis = buchberger([poly("x - y^3"), poly("x^50")], key=lex_key)
    assert [canonical_str(b) for b in basis] == ["y^150", "-y^3 + x"]
