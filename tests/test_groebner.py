"""Groebner bases, elimination, and resource guards."""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
from fractions import Fraction

import pytest

from areapoly.groebner import (
    GuardConfig,
    NotPrincipalError,
    ResourceGuardError,
    _buchberger,
    _Element,
    _factor_degrees,
    _finalize,
    _sieve_irreducible,
    _sieve_primes,
    _to_int_terms,
    buchberger,
    eliminate,
    principal_generator,
)
from areapoly import poly as poly_module
from areapoly.poly import (
    _STRIP_INTERVAL,
    Poly,
    Ring,
    _block_rows,
    _CoefficientOverflow,
    _Divisor,
    _FieldOverflow,
    _heap_reduce,
    _Packing,
    canonical_str,
    mono_mul,
    parse_polynomial,
    poly_divmod,
)
from areapoly.variety import diagonal_relation_formula

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
        assert [canonical_str(b) for b in eliminate(gens, ["x", "y"])] == [
            "z^7 - 441/35152*z^4",
        ]


class TestEliminate:
    def test_twisted_cubic_projection(self):
        basis = eliminate(twisted_cubic(), ["x"])
        assert [canonical_str(b) for b in basis] == ["y^3 - z^2"]

    def test_variable_pinned_by_a_linear_generator(self):
        basis = eliminate([poly("y - x - 1"), poly("z - y^2")], ["y"])
        assert [canonical_str(b) for b in basis] == ["x^2 + 2*x - z + 1"]

    def test_variable_pinned_by_a_scaled_linear_generator(self):
        basis = eliminate([poly("3*y - x"), poly("z - y^2")], ["y"])
        assert [canonical_str(b) for b in basis] == ["x^2 - 9*z"]

    def test_inconsistent_system_gives_the_unit_ideal(self):
        basis = eliminate([poly("x - 1"), poly("x - 2")], ["x"])
        assert basis == [Poly.one(YZ)]

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

    @pytest.mark.parametrize("seed", range(4))
    def test_kept_elements_match_the_rename_through_substitute(self, seed):
        """Eliminated names away from the front: each kept element, read off
        the tail of the block ring's exponents, equals its rename to the
        kept ring by ``substitute``."""
        gens = random_ideal(seed)
        ring = gens[0].ring
        names = [ring.names[-1], ring.names[1]]
        kept_ring = ring.without(names)
        block = [g.substitute({}, ring=Ring((*names, *kept_ring.names))) for g in gens]
        renamed = [g.substitute({}, ring=kept_ring) for g in buchberger(block, eliminated=2)]
        assert eliminate(gens, names) == renamed

    def test_empty_block_is_the_grevlex_basis(self):
        for gens in (twisted_cubic(), random_ideal(3)):
            assert eliminate(gens, []) == buchberger(gens)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("seed", range(1, 10))
    def test_matches_the_filtered_block_basis(self, seed, k):
        gens = random_ideal(seed)
        assert eliminate(gens, list(gens[0].ring.names[:k])) == reference_elimination(gens, k)

    def test_parametrized_twisted_cubic(self):
        txyz = Ring(("t", "x", "y", "z"))
        gens = [poly(text, txyz) for text in ("x - t", "y - t^2", "z - t^3")]
        basis = eliminate(gens, ["t"])
        assert basis == reference_elimination(gens, 1)
        assert [canonical_str(b) for b in basis] == [
            "-x*z + y^2",
            "x*y - z",
            "x^2 - y",
        ]

    def test_degree_growth_beyond_the_first_packing(self):
        basis = eliminate([poly("x - y^3"), poly("x^50")], ["x"])
        assert [canonical_str(b) for b in basis] == ["y^150"]

    @pytest.mark.parametrize("eliminated", [-1, 4])
    def test_eliminated_out_of_range_is_refused(self, eliminated):
        with pytest.raises(ValueError):
            buchberger(twisted_cubic(), eliminated=eliminated)

    @pytest.mark.parametrize("principal", [False, True])
    def test_eliminated_block_picks_the_order(self, principal):
        # Under grevlex on all of (t, x, y), x^2 - t leads with x^2 and
        # would be kept although it holds t; the block order leads it with t.
        txy = Ring(("t", "x", "y"))
        gens = [poly("t - x^2", txy), poly("t*y - 1", txy)]
        basis = buchberger(gens, eliminated=1, principal=principal)
        assert [canonical_str(b) for b in basis] == ["x^2*y - 1"]


def block_basis(gens: list[Poly], k: int) -> list[Poly]:
    """The full reduced basis under the block order on the first ``k``
    variables, elements holding them included, which ``buchberger``
    itself never finishes."""
    ring = gens[0].ring
    packing = _Packing(_block_rows(k, len(ring)), len(ring), width=16)
    guard = GuardConfig()
    return _finalize(_buchberger(gens, packing, guard, k), ring, packing, guard)


def reference_elimination(gens: list[Poly], k: int) -> list[Poly]:
    """The full block-order basis, filtered to the elements free of the
    first ``k`` variables and moved into the ring of the others."""
    ring = gens[0].ring
    kept_ring = Ring(ring.names[k:])
    kept = [g for g in block_basis(gens, k) if not any(any(m[:k]) for m in g.terms)]
    return [g.substitute({}, ring=kept_ring) for g in kept]


class TestPrincipal:
    def test_single_element(self):
        generator = principal_generator([poly("y^3 - z^2")])
        assert canonical_str(generator) == "y^3 - z^2"

    def test_rejects_non_principal(self):
        with pytest.raises(NotPrincipalError):
            principal_generator([poly("y"), poly("z")])
        with pytest.raises(NotPrincipalError):
            principal_generator([])


def integer_terms(p: Poly) -> dict:
    return {m: int(c) for m, c in p.terms.items()}


class TestIrreducibilitySieve:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_staircase_relations_are_proved_irreducible(self, n):
        tried = _sieve_irreducible(integer_terms(diagonal_relation_formula(n)))
        assert tried is not None and 1 <= tried <= 20

    def test_degree_one_takes_no_prime(self):
        assert _sieve_irreducible(integer_terms(poly("x - 2*y + z"))) == 0

    def test_reducible_candidates_are_refused(self):
        z = diagonal_relation_formula(2)
        ring = z.ring
        u_plus_b1 = Poly.variable(ring, "U") + Poly.variable(ring, "B1")
        assert _sieve_irreducible(integer_terms(z * u_plus_b1)) is None
        assert _sieve_irreducible(integer_terms(z * z)) is None

    def test_no_pure_power_at_the_total_degree_is_refused(self):
        assert _sieve_irreducible(integer_terms(poly("x*y + z"))) is None

    def test_galois_group_without_a_verdict(self):
        # Every specialization behaves like x^4 + 1: its factors mod every
        # prime have degrees that sum to 2.
        assert _sieve_irreducible(integer_terms(poly("x^4 + y^4"))) is None

    @pytest.mark.parametrize(
        "coeffs, p, degrees",
        [
            ([1, 0, 0, 0, 1], 17, [1, 1, 1, 1]),
            ([1, 0, 0, 0, 1], 3, [2, 2]),
            ([1, 1, 1], 2, [2]),
            ([-2, 0, 1], 7, [1, 1]),
            ([1, 1, 0, 1], 2, [3]),
            ([2, 0, 1, 0, 1], 5, [4]),
            ([0, 1, 1], 2, [1, 1]),
        ],
    )
    def test_factor_degrees(self, coeffs, p, degrees):
        assert _factor_degrees(coeffs, p) == degrees

    def test_factor_degrees_skip_bad_primes(self):
        assert _factor_degrees([1, 2, 7], 7) is None  # 7 divides the leading coefficient
        assert _factor_degrees([1, 2, 1], 5) is None  # (x + 1)^2 is not squarefree
        assert _factor_degrees([1, 1, 2], 7) is None  # discriminant -7
        assert _factor_degrees([1, 0, 1], 2) is None  # (x + 1)^2 over the general path

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_quadratics_agree_with_their_roots(self, p):
        """Two simple roots split, none is irreducible, a double root or a
        leading coefficient that ``p`` divides gives None."""
        rng = random.Random(p)
        for _ in range(300):
            f = [rng.randrange(-50, 50) for _ in range(3)]
            roots = [x for x in range(p) if (f[0] + f[1] * x + f[2] * x * x) % p == 0]
            if f[2] % p == 0 or any((f[1] + 2 * f[2] * x) % p == 0 for x in roots):
                want = None
            else:
                want = [1, 1] if roots else [2]
            assert _factor_degrees(f, p) == want

    @pytest.mark.parametrize("p", _sieve_primes()[:3])
    def test_quadratics_at_the_sieve_primes(self, p):
        rng = random.Random(p)
        squares = {k * k % p for k in range(1, p)}
        n = next(n for n in range(2, p) if n not in squares)
        for _ in range(50):
            a, b, c, d = (rng.randrange(1, 1 << 40) for _ in range(4))
            split = None if a * c % p == 0 or (a * d - b * c) % p == 0 else [1, 1]
            assert _factor_degrees([b * d, a * d + b * c, a * c], p) == split
            m = rng.randrange(1, p)
            assert _factor_degrees([-n * m * m, 0, 1], p) == [2]
            assert _factor_degrees([b * b * c, 2 * b * c, c], p) is None

    def test_undecided_candidate_falls_back_to_the_full_run(self, sieve_verdicts):
        ring = Ring(("s", "x", "y"))
        gens = [parse_polynomial("s - x", ring), parse_polynomial("s^4 + y^4", ring)]
        stopped = eliminate(gens, ["s"], principal=True)
        assert sieve_verdicts == [None]
        assert stopped == eliminate(gens, ["s"])
        assert [canonical_str(g) for g in stopped] == ["x^4 + y^4"]

    def test_stop_at_a_prime_of_height_one(self, sieve_verdicts):
        # The kernel of x -> s^2, y -> s^3 is the prime (y^2 - x^3).
        ring = Ring(("s", "x", "y"))
        gens = [parse_polynomial("x - s^2", ring), parse_polynomial("y - s^3", ring)]
        stopped = eliminate(gens, ["s"], principal=True)
        assert len(sieve_verdicts) == 1 and sieve_verdicts[0] is not None
        assert stopped == eliminate(gens, ["s"])
        assert [canonical_str(g) for g in stopped] == ["x^3 - y^2"]


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

    def test_basis_size_guard_counts_the_generators(self):
        with pytest.raises(ResourceGuardError, match="exceeded 2 elements"):
            buchberger([poly("x"), poly("y"), poly("z")], guard=GuardConfig(max_basis=2))

    def test_coefficient_bit_guard(self):
        # Reducing x^40 by a three-term linear polynomial with a huge
        # coefficient piles up mixed terms whose content stays small, so
        # the periodic bit check must fire.
        big = 10**21
        gens = [poly(f"x - {big}*y - 1"), poly("x^40")]
        with pytest.raises(ResourceGuardError, match="exceeded 1000 bits during reduction"):
            buchberger(gens, guard=GuardConfig(max_basis=500, max_coeff_bits=1000))

    @pytest.mark.parametrize("limits", [{"max_basis": 0}, {"max_coeff_bits": 0}])
    def test_limits_below_one_are_refused(self, limits):
        with pytest.raises(ValueError, match="at least 1"):
            GuardConfig(**limits)

    def test_coefficient_bit_guard_measures_after_stripping(self):
        # A direct reduction, so pair selection cannot change what the
        # check sees.  The chains x^16 -> z^16 and y^16 -> z^16 take 32
        # steps, the first scaling everything else by 10 each time; at the
        # one periodic check they have cancelled and the work polynomial
        # is 10^16 times the tail, 56-bit coefficients whose content
        # strips them to the 3 bits of 5*z^2 - 7*z + 3.
        packing = _Packing([], 3, width=8)
        basis = [
            _Element(_to_int_terms(poly(text), packing), packing)
            for text in ("10*x - z", "10*y - z")
        ]
        terms = _to_int_terms(poly("x^16 - y^16 + 5*z^2 - 7*z + 3"), packing)
        tail = _to_int_terms(poly("5*z^2 - 7*z + 3"), packing)
        assert _heap_reduce(terms, basis, packing.guard, 3)[0] == tail
        with pytest.raises(_CoefficientOverflow):
            _heap_reduce(terms, basis, packing.guard, 2)


# The block orders by the size of the eliminated block; block 0 is grevlex.
BLOCKS = {"grevlex": 0, "block1": 1, "block2": 2, "block3": 3}

# Weight rows of n variables: the block rows that the engine packs, no
# rows (lex) as division and substitution pack them, and deglex, whose one
# row is neither.
ROWS = {
    "lex": lambda n: [],
    "deglex": lambda n: [range(n)],
    **{name: functools.partial(_block_rows, k) for name, k in BLOCKS.items()},
}


def textbook_grevlex(mono: tuple[int, ...]) -> tuple:
    return (sum(mono), tuple(-e for e in reversed(mono)))


def textbook_block(k: int):
    return lambda mono: (*textbook_grevlex(mono[:k]), *textbook_grevlex(mono[k:]))


# The orders as textbook tuple keys, written apart from their weight rows
# and cached, since the division below takes the largest term each step.
TEXTBOOK = {
    name: functools.cache(key)
    for name, key in {
        "lex": lambda mono: mono,
        "deglex": lambda mono: (sum(mono), mono),
        "grevlex": textbook_grevlex,
        "block1": textbook_block(1),
        "block2": textbook_block(2),
        "block3": textbook_block(3),
    }.items()
}


def mono_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def textbook_remainder(f: dict, basis: list[dict], key) -> dict:
    """Multivariate division over the rationals (Cox, Little and O'Shea,
    Ideals, Varieties, and Algorithms, section 2.3), on plain term dicts."""
    leads = [(max(g, key=key), g) for g in basis]
    work, remainder = dict(f), {}
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        divisor = next(((lm, g) for lm, g in leads if mono_divides(lm, mono)), None)
        if divisor is None:
            remainder[mono] = coeff
            continue
        lm, g = divisor
        shift = tuple(a - b for a, b in zip(mono, lm))
        quotient = coeff / g[lm]
        for m, c in g.items():
            if m != lm:
                m = mono_mul(m, shift)
                c = work.get(m, 0) - quotient * c
                if c:
                    work[m] = c
                else:
                    work.pop(m, None)
    return remainder


def textbook_spoly(f: dict, g: dict, key) -> dict:
    lf, lg = max(f, key=key), max(g, key=key)
    lcm = tuple(map(max, lf, lg))
    terms: dict = {}
    for h, lh, sign in ((f, lf, 1), (g, lg, -1)):
        shift = tuple(a - b for a, b in zip(lcm, lh))
        for m, c in h.items():
            m = mono_mul(m, shift)
            terms[m] = terms.get(m, 0) + sign * c / h[lh]
    return {m: c for m, c in terms.items() if c}


def random_ideal(seed: int) -> list[Poly]:
    """Three generators of two to four terms of degree at most 3."""
    rng = random.Random(seed)
    ring = Ring(("a", "b", "c", "d")[: rng.choice((3, 4))])
    monos = [m for m in itertools.product(range(4), repeat=len(ring)) if sum(m) <= 3]
    return [
        Poly(ring, {m: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for m in rng.sample(monos, k)})
        for k in (rng.randint(2, 4) for _ in range(3))
    ]


# Every basis of seeds 0-10 takes about 0.01 s or less, and checking them
# takes under 1 s each (most, seed 0 under block 2).  Seed 11 stops the
# sweep only for time: its block-2 basis takes about 3.5 s.  So range(11)
# is a sample, not a sweep that the engine is known to pass everywhere.
@pytest.mark.parametrize("name", BLOCKS)
@pytest.mark.parametrize("seed", range(11))
def test_random_ideal_basis_is_reduced_groebner(seed, name):
    # Checked against the textbook keys and a division written here, so
    # the check depends neither on the packing nor on pair selection.
    # Grevlex is what buchberger returns; a block basis is taken whole,
    # before buchberger would drop the elements holding the block.
    key = TEXTBOOK[name]
    gens = random_ideal(seed)
    k = BLOCKS[name]
    full = buchberger(gens) if k == 0 else block_basis(gens, k)
    basis = [dict(g.terms) for g in full]
    assert basis
    for g in gens:
        assert textbook_remainder(g.terms, basis, key) == {}
    leads = [max(g, key=key) for g in basis]
    for (f, lf), (g, lg) in itertools.combinations(zip(basis, leads), 2):
        # Coprime leading monomials need no check: their S-polynomial
        # reduces to zero (Cox, Little and O'Shea, section 2.9, Prop. 4).
        if any(map(min, lf, lg)):
            assert textbook_remainder(textbook_spoly(f, g, key), basis, key) == {}
    for i, g in enumerate(basis):
        assert g[leads[i]] == 1
        for j, lm in enumerate(leads):
            assert j == i or not any(mono_divides(lm, m) for m in g)


def random_monomials(seed: int, n: int = 5, count: int = 60) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [tuple(rng.randrange(4) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("name", ROWS)
class TestPacking:
    def packing(self, name: str, n: int = 5) -> _Packing:
        return _Packing(ROWS[name](n), n, width=8)

    def test_packed_order_is_the_key_order(self, name):
        packing = self.packing(name)
        monos = sorted(set(random_monomials(1)))
        assert sorted(monos, key=packing.pack) == sorted(monos, key=TEXTBOOK[name])

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


def full_scan_reduce(terms, divisors, guard_bits, max_bits, quotient=None):
    """``_heap_reduce`` without its early exit: every term is popped and
    tested against every divisor."""
    work = dict(terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    tail: list[list[int]] = []
    kept = [tail] if quotient is None else [tail, quotient]
    scale = 1
    steps = 0
    while heap:
        mono = -heapq.heappop(heap)
        coeff = work.pop(mono, 0)
        if not coeff:
            continue
        for divisor in divisors:
            shift = mono - divisor.lm
            if not shift & guard_bits:
                break
        else:
            tail.append([mono, coeff])
            continue
        if (shift + divisor.top) & guard_bits:
            raise _FieldOverflow
        d = math.gcd(coeff, divisor.lc)
        step, mult = divisor.lc // d, coeff // d
        if step != 1:
            for m in work:
                work[m] *= step
            for t in itertools.chain(*kept):
                t[1] *= step
            scale *= step
        if quotient is not None:
            quotient.append([shift, mult])
        for m, c in divisor.rest:
            m += shift
            cc = work.get(m)
            if cc is None:
                work[m] = -mult * c
                heapq.heappush(heap, -m)
            elif cc - mult * c:
                work[m] = cc - mult * c
            else:
                del work[m]
        steps += 1
        if steps % _STRIP_INTERVAL == 0:
            g = math.gcd(*work.values(), *(t[1] for t in itertools.chain(*kept)))
            if g > 1:
                work = {m: c // g for m, c in work.items()}
                for t in itertools.chain(*kept):
                    t[1] //= g
                scale = Fraction(scale, g)
            coeffs = [*work.values(), *(t[1] for t in tail)]
            if max_bits is not None and coeffs:
                if max(max(coeffs), -min(coeffs)).bit_length() > max_bits:
                    raise _CoefficientOverflow
    return dict(tail), scale


def packed_terms(rng: random.Random, packing: _Packing, count: int, degree: int) -> dict:
    monos = [m for m in itertools.product(range(degree + 1), repeat=4) if sum(m) <= degree]
    chosen = rng.sample(monos, min(count, len(monos)))
    return {packing.pack(m): rng.choice((-3, -2, -1, 1, 2, 5)) for m in chosen}


def reduction(reduce, terms, divisors, packing, max_bits, with_quotient):
    quotient = [] if with_quotient else None
    try:
        remainder, scale = reduce(terms, divisors, packing.guard, max_bits, quotient)
    except (_FieldOverflow, _CoefficientOverflow) as exc:
        return type(exc).__name__
    return list(remainder.items()), scale, quotient


@pytest.mark.parametrize("name", ROWS)
@pytest.mark.parametrize("seed", range(8))
def test_early_exit_matches_the_full_scan(name, seed):
    """Same remainder, keys in the same order, same scale and quotient, on
    seeded packed inputs with zero to three divisors."""
    rng = random.Random(seed)
    packing = _Packing(ROWS[name](4), 4, width=8)
    for _ in range(15):
        divisors = [
            _Divisor(packed_terms(rng, packing, rng.randint(1, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3))
        ]
        terms = packed_terms(rng, packing, rng.randint(1, 12), rng.randint(1, 5))
        with_quotient = len(divisors) == 1
        for max_bits in (None, 6, 10_000):
            args = (terms, divisors, packing, max_bits, with_quotient)
            assert reduction(_heap_reduce, *args) == reduction(full_scan_reduce, *args)


@pytest.mark.parametrize("seed", range(10))
def test_division_matches_the_full_scan(seed, monkeypatch):
    rng = random.Random(seed)
    ring = Ring(("a", "b", "c"))
    monos = [m for m in itertools.product(range(4), repeat=3) if sum(m) <= 3]

    def random_poly(k: int) -> Poly:
        values = (Fraction(-3, 2), -1, Fraction(1, 3), 2, 5)
        return Poly(ring, {m: Fraction(rng.choice(values)) for m in rng.sample(monos, k)})

    for _ in range(10):
        g = random_poly(rng.randint(1, 4))
        f = g * random_poly(rng.randint(1, 4)) + random_poly(rng.randint(0, 3))
        got = poly_divmod(f, g)
        with monkeypatch.context() as patch:
            patch.setattr(poly_module, "_heap_reduce", full_scan_reduce)
            want = poly_divmod(f, g)
        assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]


def test_huge_exponent_is_exact():
    generator = Poly(XYZ, {(2**16, 1, 0): 3})
    assert buchberger([generator]) == [Poly(XYZ, {(2**16, 1, 0): 1})]


def test_degree_growth_beyond_the_first_packing():
    # With x eliminated, reducing x^50 by x - y^3 reaches y^150, past the
    # fields sized from the input degree.
    basis = buchberger([poly("x - y^3"), poly("x^50")], eliminated=1)
    assert [canonical_str(b) for b in basis] == ["y^150"]
