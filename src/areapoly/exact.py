"""Exact rational scalars: parsing, formatting, 2-adic valuation,
clearing denominators, and the primes of the modular routines.

All quantities in this package are exact rational numbers, held either
as ``fractions.Fraction`` or as ``int``s over a common denominator;
nothing here ever touches floating point.  This module adds the few
scalar utilities the rest of the package needs on top of the stdlib
type: a strict text codec for rationals, the 2-adic valuation with a
totally ordered infinity sentinel, and :func:`clear_denominators`, which
puts a batch of rationals over one common denominator so that a check
invariant under a positive scale can run in ``int`` arithmetic.
:func:`primes` yields the odd primes below a bound, largest first, for
the nullspace solver and the irreducibility sieve that work modulo primes;
it proves each prime once per process.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

__all__ = [
    "INFINITY",
    "val2",
    "format_rational",
    "parse_rational",
    "RationalSyntaxError",
    "clear_denominators",
    "primes",
]


class RationalSyntaxError(ValueError):
    """Raised when a rational literal does not match ``num`` or ``num/den``."""


class _Infinity:
    """Sentinel larger than every integer, absorbing under addition.

    Used as the 2-adic valuation of zero so that valuation comparisons
    (``val2(a) <= val2(b)`` and friends) are total without special
    casing zero at every call site.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __add__(self, other: object) -> "_Infinity":
        return self

    __radd__ = __add__

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("areapoly.exact.INFINITY")


INFINITY = _Infinity()


def _twos_in(n: int) -> int:
    """Exponent of 2 in a nonzero integer."""
    n = abs(n)
    return (n & -n).bit_length() - 1


def val2(q: Fraction | int) -> int | _Infinity:
    """2-adic valuation of a rational: ``val2(2^k * odd/odd) == k``.

    Returns ``INFINITY`` for zero.  Examples: ``val2(4) == 2``,
    ``val2(Fraction(3, 8)) == -3``, ``val2(5) == 0``.
    """
    q = Fraction(q)
    if q == 0:
        return INFINITY
    return _twos_in(q.numerator) - _twos_in(q.denominator)


_RATIONAL_RE = re.compile(r"^\s*(-?\d+)\s*(?:/\s*([1-9][0-9]*)\s*)?$")


def format_rational(q: Fraction | int) -> str:
    """Canonical text for a rational: ``num/den`` in lowest terms, ``/1`` omitted."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``num`` or ``num/den``; the denominator must be a positive integer.

    Rejects floats, exponents, and a signed denominator.  The input need
    not be in lowest terms; the result always is (``Fraction`` reduces).
    """
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise RationalSyntaxError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def clear_denominators(values: Sequence[Fraction | int]) -> tuple[int, list[int]]:
    """``D``, the lcm of the denominators of the values, and the values
    times ``D`` as ``int``s; ``D`` is 1 for no values."""
    den = lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


# Deterministic Miller-Rabin witnesses for every n below 2^64.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _prime_below(n: int) -> int | None:
    """The largest odd prime below ``n``, or None."""
    for m in range((n - 2) | 1, 2, -2):
        if _is_prime(m):
            return m
    return None


def primes(below: int = 1 << 61) -> Iterator[int]:
    """The odd primes below ``below`` (at most ``2^64``), largest first.

    Each step is cached, so a walk proves no prime an earlier walk found.
    """
    n = _prime_below(below)
    while n is not None:
        yield n
        n = _prime_below(n)
