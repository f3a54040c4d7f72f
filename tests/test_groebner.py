"""Groebner bases, elimination, and resource guards."""

from __future__ import annotations

import itertools

import pytest

from areapoly.groebner import (
    GuardConfig,
    NotPrincipalError,
    ResourceGuardError,
    buchberger,
    eliminate,
    principal_generator,
)
from areapoly.poly import Poly, Ring, canonical_str, lex_key, parse_polynomial

XYZ = Ring(("x", "y", "z"))


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
