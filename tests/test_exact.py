"""2-adic valuation, rational text codec and the primes of the modular routines."""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from areapoly import exact
from areapoly.exact import (
    INFINITY,
    RationalSyntaxError,
    format_rational,
    parse_rational,
    primes,
    val2,
)

nonzero_rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=512
).filter(lambda f: f != 0)


class TestVal2:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (1, 0),
            (2, 1),
            (-4, 2),
            (12, 2),
            (Fraction(1, 2), -1),
            (Fraction(3, 8), -3),
            (Fraction(-5, 6), -1),
            (Fraction(7), 0),
            (Fraction(2, 3), 1),
        ],
    )
    def test_values(self, value, expected):
        assert val2(value) == expected

    def test_zero_is_infinite(self):
        assert val2(0) is INFINITY
        assert val2(Fraction(0)) is INFINITY

    def test_infinity_ordering(self):
        assert INFINITY > 10**6
        assert INFINITY >= INFINITY
        assert not INFINITY < -(10**6)
        assert not INFINITY <= 0
        assert min(INFINITY, 3) == 3

    def test_infinity_absorbs_addition(self):
        assert INFINITY + 5 is INFINITY
        assert 5 + INFINITY is INFINITY

    @given(nonzero_rationals, nonzero_rationals)
    def test_multiplicative(self, a, b):
        assert val2(a * b) == val2(a) + val2(b)

    @given(nonzero_rationals, nonzero_rationals)
    def test_ultrametric(self, a, b):
        lower = min(val2(a), val2(b))
        assert val2(a + b) >= lower
        if val2(a) != val2(b):
            assert val2(a + b) == lower


class TestRationalCodec:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("0", Fraction(0)),
            ("-7", Fraction(-7)),
            ("3/4", Fraction(3, 4)),
            ("-10/4", Fraction(-5, 2)),
            (" 9 / 12 ", Fraction(3, 4)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("bad", ["", "1/0", "1.5", "2/-3", "a", "1/ ", "--2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(RationalSyntaxError):
            parse_rational(bad)

    def test_format(self):
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(Fraction(-3, 8)) == "-3/8"

    @given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value


class TestPrimes:
    def test_small_primes_largest_first(self):
        assert list(primes(30)) == [29, 23, 19, 17, 13, 11, 7, 5, 3]
        assert list(primes(4)) == [3]
        assert list(primes(3)) == []

    def test_first_primes_below_two_to_the_61(self):
        first = list(islice(primes(), 3))
        assert first[0] == (1 << 61) - 1
        assert all(exact._is_prime(p) for p in first)
        between = range(first[-1] + 2, first[0], 2)
        assert sorted(p for p in between if exact._is_prime(p)) == sorted(first[1:-1])

    def test_a_second_walk_proves_nothing_twice(self, monkeypatch):
        exact._prime_below.cache_clear()
        tested: list[int] = []
        is_prime = exact._is_prime

        def counting(n: int) -> bool:
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(exact, "_is_prime", counting)
        first = list(islice(primes(1 << 40), 3))
        proved = set(tested)
        tested.clear()
        second = list(islice(primes(1 << 40), 5))
        assert second[:3] == first
        assert tested and not proved.intersection(tested)
        assert min(proved) > max(tested)
        tested.clear()
        assert list(islice(primes(1 << 40), 5)) == second
        assert tested == []

    def test_interleaved_walks_agree(self):
        exact._prime_below.cache_clear()
        odd_primes = [n for n in range(199, 2, -2) if all(n % d for d in range(3, n, 2))]
        a, b = primes(200), primes(200)
        from_a, from_b = [], []
        for _ in range(5):
            from_a.append(next(a))
            from_b += [next(b), next(b)]
        assert from_a == odd_primes[:5]
        assert from_b == odd_primes[:10]
        assert list(primes(200)) == odd_primes
