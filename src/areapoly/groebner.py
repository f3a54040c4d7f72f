"""Groebner bases over the rationals via Buchberger's algorithm.

The public entry points are :func:`buchberger`, :func:`eliminate` and
:func:`principal_generator`.  The engine runs the one order that
elimination needs, and the size ``k`` of the eliminated block picks it:
graded reverse lex on the first ``k`` variables dominating graded
reverse lex on the rest, so ``k = 0`` is plain graded reverse lex.
:func:`eliminate` moves the variables it eliminates to the front and
makes one Buchberger run with ``k`` their number.  That run
minimalizes, interreduces and converts only the elements whose leading
monomial is free of the eliminated block; by the elimination theorem
they alone are a Groebner basis of the elimination ideal.  A caller that
knows this ideal to be a prime of height at most one passes
``principal=True``: the pair loop stops at the first such element that a
modular factor-degree sieve proves irreducible, which is the generator
up to a unit.  Mod an odd prime a quadratic splits, ``[1, 1]``, exactly
when its discriminant is a nonzero square (Euler's criterion, one modular
power), else it is ``[2]``; other degrees take distinct-degree factorization.

Internally each monomial is one Python int with the order's weights in
its high bits and the exponents below them (the packing that
:mod:`areapoly.poly` defines), so comparing, multiplying and testing
divisibility are single int operations; the conversion happens once on
entry and once on exit.  Coefficients are kept as primitive
integer vectors, and every normal form is the fraction-free heap
reduction ``poly._heap_reduce`` that polynomial division runs too:
instead of dividing, the intermediate polynomial and its accumulated
remainder are jointly rescaled by the divisor's leading coefficient and
the content is stripped periodically; once a term is below every
divisor's leading monomial, it and the rest go to the remainder at once.
Pending pairs are taken by the sugar strategy (Giovini, Mora, Niesi,
Robbiano and Traverso, "One sugar cube, please", ISSAC 1991): smallest
sugar first, then smallest lcm.  An input's sugar is its total degree
and an element made from an S-polynomial takes its pair's sugar; growth
during reduction is not tracked, so the sugar is only the selection
heuristic and not the degree the homogenized computation would reach.
A run with the principal stop weighs the eliminated block: its pairs
are keyed by sugar plus twice the degree of their lcm in that block, so
pairs that can yield kept elements come first and the stop comes after
far fewer reductions (37 normal forms instead of 202 for the four-step
staircase ``z_T``).  Runs without the stop build the whole basis anyway
and keep plain sugar.  ``_buchberger`` decides the stop and the block
weight itself from ``eliminated`` and ``principal``, and reads a packed
lcm's block degree through ``_Packing.block_degree``; inputs and reduced
S-polynomials enter the basis through one step, which also queues the
new pairs.  A lone kept element is already reduced, so the finishing
pass interreduces only a basis of two or more.
Resource guards bound the basis size and coefficient bit growth so a
runaway computation raises :class:`ResourceGuardError` instead of
consuming the machine.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .exact import clear_denominators, primes
from .poly import (
    Monomial,
    Poly,
    Ring,
    _MIN_FIELD_BITS,
    _block_rows,
    _CoefficientOverflow,
    _Divisor,
    _FieldOverflow,
    _heap_reduce,
    _Packing,
    _trusted,
)

__all__ = [
    "GuardConfig",
    "ResourceGuardError",
    "NotPrincipalError",
    "buchberger",
    "eliminate",
    "principal_generator",
]

# The irreducibility sieve gives up after trying this many primes.
_SIEVE_PRIMES = 20


@dataclass(frozen=True)
class GuardConfig:
    """Limits for a Groebner run; exceeding either aborts the computation.

    The defaults are sized so that every workload in this package stays
    far below them while a genuinely infeasible elimination aborts in
    reasonable time instead of monopolizing the machine.
    """

    max_basis: int = 500
    max_coeff_bits: int = 50_000

    def __post_init__(self) -> None:
        if self.max_basis < 1 or self.max_coeff_bits < 1:
            raise ValueError(
                "max_basis and max_coeff_bits must be at least 1, "
                f"got {self.max_basis} and {self.max_coeff_bits}"
            )


class ResourceGuardError(RuntimeError):
    """A computation exceeded its resource limits: a Groebner run its
    :class:`GuardConfig`, or the sampling oracle its monomial cap."""


class NotPrincipalError(ValueError):
    """An ideal expected to be principal has a basis of a different size."""


# ---------------------------------------------------------------------------
# integer-primitive internal form
# ---------------------------------------------------------------------------

IntTerms = dict[int, int]


class _Element(_Divisor):
    """Basis element: primitive integer terms on packed monomials, with
    the divisor data and the exponents of its leading monomial (for the
    pair criteria and the sugar)."""

    __slots__ = ("terms", "exps")

    def __init__(self, terms: IntTerms, packing: _Packing):
        super().__init__(terms)
        self.terms = terms
        self.exps = packing.exponents(self.lm)


def _to_int_terms(poly: Poly, packing: _Packing) -> IntTerms:
    """Clear denominators, keeping the sign pattern."""
    _, coeffs = clear_denominators(list(poly.terms.values()))
    return dict(zip(map(packing.pack, poly.terms), coeffs))


def _normalize_element(terms: IntTerms) -> IntTerms:
    """Primitive form with positive leading coefficient under the order."""
    if not terms:
        return terms
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return terms if g == 1 else {m: c // g for m, c in terms.items()}


def _lcm(f: _Element, g: _Element, packing: _Packing) -> int:
    return packing.pack(list(map(max, f.exps, g.exps)))


def _spoly(f: _Element, g: _Element, tau: int, packing: _Packing) -> IntTerms:
    """S-polynomial of ``f`` and ``g``, whose leading monomials have lcm ``tau``."""
    mf, mg = tau - f.lm, tau - g.lm
    if (mf + f.top) & packing.guard or (mg + g.top) & packing.guard:
        raise _FieldOverflow
    d = math.gcd(f.lc, g.lc)
    cf, cg = g.lc // d, f.lc // d
    terms = {m + mf: cf * c for m, c in f.rest}
    for m, c in g.rest:
        m += mg
        c = terms.get(m, 0) - cg * c
        if c:
            terms[m] = c
        else:
            del terms[m]
    return terms


def _update_pairs(
    basis: list[_Element], pairs: dict[tuple[int, int], int], t: int, packing: _Packing
) -> dict[tuple[int, int], int]:
    """Gebauer-Moeller pair update for the element at index ``t``.

    ``pairs`` maps each pending pair to the lcm of its leading monomials,
    and the updated map is returned.  Candidate pairs whose lcm is a
    multiple of another candidate's lcm are discarded, pairs with coprime
    leading monomials (whose lcm is their product) are discarded after
    serving as discarders, and old pairs subsumed by the new leading
    monomial are dropped.
    """
    guard_bits = packing.guard
    new = basis[t]
    lcms = [_lcm(basis[i], new, packing) for i in range(t)]
    coprime = [lcms[i] == basis[i].lm + new.lm for i in range(t)]
    pending = list(range(t))
    selected: list[int] = []
    while pending:
        i = pending.pop()
        tau = lcms[i]
        if coprime[i] or all(
            (tau - lcms[j]) & guard_bits for j in itertools.chain(pending, selected)
        ):
            selected.append(i)
    kept = {
        (i, j): tau
        for (i, j), tau in pairs.items()
        if (tau - new.lm) & guard_bits or lcms[i] == tau or lcms[j] == tau
    }
    kept.update(((i, t), lcms[i]) for i in selected if not coprime[i])
    return kept


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def buchberger(
    gens: list[Poly],
    guard: GuardConfig = GuardConfig(),
    *,
    eliminated: int = 0,
    principal: bool = False,
) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    ``eliminated = k`` picks the order: graded reverse lex on the first
    ``k`` variables dominating graded reverse lex on the rest, whose
    weight rows (:func:`poly._block_rows`) the run packs into single-int
    monomials; ``k = 0``, the default, is plain graded reverse lex.
    Elements come back monic over the rationals, sorted by ascending
    leading monomial, so equal ideals produce literally equal bases
    regardless of generator order.  The field width is sized from the
    input degree; a run whose degrees outgrow it starts over with fields
    twice as wide.

    Only the elements whose leading monomial is free of the first ``k``
    variables are finished and returned.  Under the block order they lie
    wholly in the kept subring, so no dropped element reduces them and
    they are exactly the kept part of the full reduced basis (elimination
    theorem; Cox, Little and O'Shea, *Ideals, Varieties, and Algorithms*,
    ch. 3 section 1).

    ``principal=True`` is the caller's promise that the ideal ``I`` of
    the kept ring that this kept part generates is prime of height at
    most one.  The run then stops at the first kept element ``c`` that
    :func:`_sieve_irreducible` proves irreducible, and returns ``c``
    alone.  That is exact: the nonzero ``c`` puts the height at one, a
    height-one prime of a UFD is principal, so ``I = (g)`` with ``g`` not
    constant (a prime is proper), and ``c = g * h``.  ``c`` has a
    pure power ``x^d`` at its total degree ``d``; the top-degree parts
    multiply, so ``g`` and ``h`` reach their total degrees in ``x`` too,
    and keep their degrees in ``x`` when the other variables are set to
    integers.  The specialization of ``c`` is irreducible over Q, so
    ``h`` is a constant and ``c`` is ``g`` up to a unit; the reduced
    basis of ``I`` is ``{c}`` made monic.  Without a verdict the run
    goes on as usual.
    """
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    ring = nonzero[0].ring
    for g in nonzero:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
    if not 0 <= eliminated <= len(ring):
        raise ValueError(f"eliminated must be between 0 and {len(ring)}, got {eliminated}")

    rows = _block_rows(eliminated, len(ring))
    degree = max(sum(m) for g in nonzero for m in g.terms)
    width = max(_MIN_FIELD_BITS, degree.bit_length() + 2)
    while True:
        packing = _Packing(rows, len(ring), width)
        try:
            basis = _buchberger(nonzero, packing, guard, eliminated, principal)
            kept = [e for e in basis if not any(e.exps[:eliminated])]
            return _finalize(kept, ring, packing, guard)
        except _FieldOverflow:
            width *= 2
        except _CoefficientOverflow:
            raise ResourceGuardError(
                f"coefficient size exceeded {guard.max_coeff_bits} bits during reduction"
            ) from None


def _buchberger(
    gens: list[Poly],
    packing: _Packing,
    guard: GuardConfig,
    eliminated: int = 0,
    principal: bool = False,
) -> list[_Element]:
    """The unreduced basis, or with ``principal`` the first element free of
    the first ``eliminated`` variables that the sieve proves irreducible, alone.

    A pair's key is its sugar, plus with ``principal`` and an eliminated
    block twice its lcm's degree in that block: the weight only hastens
    the stop, so a run that builds the whole basis keeps plain sugar.
    """
    basis: list[_Element] = []
    bits = guard.max_coeff_bits
    weight = 2 if principal and eliminated else 0
    # Each element's sugar less the degree of its leading monomial.  An
    # input's sugar is its total degree and a new element takes its pair's
    # sugar as it stands; what reduction adds to the degree is not tracked.
    excess: list[int] = []
    live: dict[tuple[int, int], int] = {}
    heap: list[tuple[int, int, int, int]] = []

    def add(terms: IntTerms, sugar: int) -> bool:
        """Append nonzero ``terms``, made primitive, with its pairs; True
        when it is the principal generator."""
        nonlocal live
        if len(basis) >= guard.max_basis:
            raise ResourceGuardError(f"basis size exceeded {guard.max_basis} elements")
        e = _Element(_normalize_element(terms), packing)
        basis.append(e)
        if principal and not any(e.exps[:eliminated]):
            unpacked = {packing.exponents(m): c for m, c in e.terms.items()}
            if _sieve_irreducible(unpacked) is not None:
                return True
        excess.append(sugar - sum(e.exps))
        t = len(basis) - 1
        live = _update_pairs(basis, live, t, packing)
        for (i, j), tau in live.items():
            if j == t:
                pair_sugar = max(excess[i], excess[j]) + sum(map(max, basis[i].exps, e.exps))
                heapq.heappush(heap, (pair_sugar + weight * packing.block_degree(tau), tau, i, j))
        return False

    for g in gens:
        terms = _to_int_terms(g, packing)
        if basis:
            terms = _heap_reduce(terms, basis, packing.guard, bits)[0]
        if terms and add(terms, g.total_degree()):
            return basis[-1:]
    while heap:
        pair_key, tau, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        s = _spoly(basis[i], basis[j], tau, packing)
        remainder = _heap_reduce(s, basis, packing.guard, bits)[0]
        if remainder and add(remainder, pair_key - weight * packing.block_degree(tau)):
            return basis[-1:]
    return basis


def _sieve_irreducible(terms: dict[Monomial, int]) -> int | None:
    """How many primes prove the integer polynomial ``terms`` irreducible
    over Q, or None without a verdict.

    It needs a pure power ``x^d`` at the total degree ``d``; degree one
    takes no prime.  The other variables are set to seeded 40-bit
    integers.  A factor over Q has, mod every prime that keeps the
    leading coefficient and leaves the result squarefree, a degree that
    is a sum of factor degrees mod p (Cantor and Zassenhaus, Math. Comp.
    1981); the verdict comes once no degree strictly between 0 and ``d``
    is such a sum for all the primes tried (Musser, J. ACM 1978).
    """
    d = max(map(sum, terms))
    width = len(next(iter(terms)))
    powers = [(0,) * i + (d,) + (0,) * (width - i - 1) for i in range(width)]
    x = next((i for i, mono in enumerate(powers) if mono in terms), None)
    if x is None or d < 1:
        return None
    if d == 1:
        return 0
    rng = random.Random(d)
    values = [rng.randrange(1 << 39, 1 << 40) for _ in range(width)]
    values[x] = 1
    f = [0] * (d + 1)
    for mono, c in terms.items():
        f[mono[x]] += c * math.prod(map(pow, values, mono))
    possible = set(range(1, d))
    for tried, p in enumerate(_sieve_primes(), 1):
        degrees = _factor_degrees(f, p)
        if degrees is None:
            continue
        sums = {0}
        for k in degrees:
            sums |= {s + k for s in sums}
        possible &= sums
        if not possible:
            return tried
    return None


@functools.cache
def _sieve_primes() -> tuple[int, ...]:
    """The largest primes below ``2^16``: ``x^p`` takes 16 squarings."""
    return tuple(itertools.islice(primes(1 << 16), _SIEVE_PRIMES))


def _factor_degrees(f: list[int], p: int) -> list[int] | None:
    """Degrees of the irreducible factors of ``f`` (coefficients lowest
    first) mod ``p`` by distinct-degree factorization, or None when
    ``p`` divides the leading coefficient or ``f`` is not squarefree; a
    quadratic mod an odd ``p`` by Euler's criterion on its discriminant."""
    if f[-1] % p == 0:
        return None
    if len(f) == 3 and p > 2:
        disc = (f[1] * f[1] - 4 * f[0] * f[2]) % p
        if not disc:
            return None
        return [1, 1] if pow(disc, p // 2, p) == 1 else [2]
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    if len(_gcd_mod([i * c for i, c in enumerate(f)][1:], f, p)) > 1:
        return None
    degrees: list[int] = []
    g, h, k = f, [0, 1], 0
    while 2 * (k + 1) < len(g):
        k += 1
        power = [1]
        for bit in bin(p)[2:]:  # h becomes x^(p^k)
            power = _mul_mod(power, power, f, p)
            if bit == "1":
                power = _mul_mod(power, h, f, p)
        h = power
        u = _gcd_mod(g, [h[0], h[1] - 1, *h[2:]], p)
        degrees += [k] * ((len(u) - 1) // k)
        g = _divmod_mod(g, u, p)[0]
    if len(g) > 1:
        degrees.append(len(g) - 1)
    return degrees


def _divmod_mod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and trimmed remainder of ``a`` by the monic ``b`` mod ``p``."""
    a = a[:]
    n = len(b) - 1
    quotient = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = quotient[i - n] = a[i] % p
        for j in range(n):
            a[i - n + j] -= c * b[j]
    return quotient, _trim(a[:n], p)


def _trim(a: list[int], p: int) -> list[int]:
    """``a`` mod ``p`` without zero leading coefficients."""
    a = [c % p for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _mul_mod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    product = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, e in enumerate(b):
            product[i + j] += c * e
    return _divmod_mod(product, f, p)[1]


def _gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of ``a`` and ``b`` mod ``p``, or ``a`` when ``b`` is zero."""
    b = _trim(b, p)
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _divmod_mod(a, b, p)[1]
    return a


def _finalize(
    basis: list[_Element], ring: Ring, packing: _Packing, guard: GuardConfig
) -> list[Poly]:
    """Minimalize, interreduce, and return monic rational polynomials."""
    ordered = sorted(basis, key=lambda e: e.lm)
    minimal: list[_Element] = []
    for e in ordered:
        if all((e.lm - kept.lm) & packing.guard for kept in minimal):
            minimal.append(e)
    reduced: list[_Element] = list(minimal)
    if len(reduced) > 1:  # a lone element is already reduced
        for i in range(len(reduced)):
            others = reduced[:i] + reduced[i + 1 :]
            terms = _heap_reduce(reduced[i].terms, others, packing.guard, guard.max_coeff_bits)[0]
            reduced[i] = _Element(_normalize_element(terms), packing)
    return [
        _trusted(ring, {packing.exponents(m): Fraction(c, e.lc) for m, c in e.terms.items()})
        for e in reduced
    ]


def eliminate(
    gens: list[Poly],
    names: list[str],
    guard: GuardConfig = GuardConfig(),
    *,
    principal: bool = False,
) -> list[Poly]:
    """Reduced Groebner basis of the elimination ideal.

    Intersects the ideal generated by ``gens`` with the subring of
    variables not listed in ``names``; the result lives in that subring
    under graded reverse lex and keeps the original variable order.  The
    eliminated variables move to the front, and one :func:`buchberger`
    run with ``eliminated=len(names)`` returns only that subring's basis
    elements, interreduced and converted; the rest of the block-order
    basis cannot reduce them.  ``principal`` passes on to
    :func:`buchberger`: the elimination ideal is prime of height at most
    one.
    """
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    ring = nonzero[0].ring
    for name in names:
        ring.index(name)
    # The kept block follows the original variable order, so the block
    # order restricted to it is graded reverse lex.
    kept_ring = ring.without(names)
    block_ring = Ring((*names, *kept_ring.names))
    if ring != block_ring:
        nonzero = [g.substitute({}, ring=block_ring) for g in nonzero]
    kept = buchberger(nonzero, guard, eliminated=len(names), principal=principal)
    # Free of the eliminated block, each kept monomial is the tail of its tuple.
    return [_trusted(kept_ring, {m[len(names) :]: c for m, c in g.terms.items()}) for g in kept]


def principal_generator(basis: list[Poly]) -> Poly:
    """The single element of a one-element basis."""
    if len(basis) != 1:
        raise NotPrincipalError(
            f"expected a principal ideal, basis has {len(basis)} elements"
        )
    return basis[0]
