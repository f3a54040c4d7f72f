"""Groebner bases over the rationals via Buchberger's algorithm.

The public entry points are :func:`buchberger` (reduced basis under any
monomial order key), :func:`eliminate` (variable elimination through a
block order, with an exact linear pre-substitution pass), and
:func:`principal_generator`.

Internally coefficients are kept as primitive integer vectors and all
reductions are fraction free: instead of dividing, the intermediate
polynomial and its accumulated remainder are jointly rescaled by the
divisor's leading coefficient and the content is stripped periodically.
Resource guards bound the basis size and coefficient bit growth so a
runaway computation raises :class:`ResourceGuardError` instead of
consuming the machine.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .poly import (
    Monomial,
    OrderKey,
    Poly,
    Ring,
    block_key,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

__all__ = [
    "GuardConfig",
    "ResourceGuardError",
    "NotPrincipalError",
    "buchberger",
    "eliminate",
    "principal_generator",
]

_STRIP_INTERVAL = 32


@dataclass(frozen=True)
class GuardConfig:
    """Limits for a Groebner run; exceeding either aborts the computation.

    The defaults are sized so that every workload in this package stays
    far below them while a genuinely infeasible elimination aborts in
    reasonable time instead of monopolizing the machine.
    """

    max_basis: int = 500
    max_coeff_bits: int = 50_000


class ResourceGuardError(RuntimeError):
    """A Groebner computation exceeded its configured resource limits."""


class NotPrincipalError(ValueError):
    """An ideal expected to be principal has a basis of a different size."""


# ---------------------------------------------------------------------------
# integer-primitive internal form
# ---------------------------------------------------------------------------

IntTerms = dict[Monomial, int]


class _Element:
    """Basis element: primitive integer terms with cached leading data."""

    __slots__ = ("terms", "lm", "lc")

    def __init__(self, terms: IntTerms, key: OrderKey):
        self.terms = terms
        self.lm = max(terms, key=key)
        self.lc = terms[self.lm]


def _to_int_terms(poly: Poly) -> IntTerms:
    """Clear denominators and strip content, keeping the sign pattern."""
    den_lcm = 1
    for c in poly.terms.values():
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    terms = {m: int(c * den_lcm) for m, c in poly.terms.items()}
    return _strip_content(terms)


def _strip_content(terms: IntTerms) -> IntTerms:
    g = 0
    for c in terms.values():
        g = math.gcd(g, c)
        if g == 1:
            return terms
    if g <= 1:
        return terms
    return {m: c // g for m, c in terms.items()}


def _joint_strip(work: IntTerms, tail: IntTerms) -> tuple[IntTerms, IntTerms]:
    g = 0
    for terms in (work, tail):
        for c in terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return work, tail
    if g <= 1:
        return work, tail
    return (
        {m: c // g for m, c in work.items()},
        {m: c // g for m, c in tail.items()},
    )


def _max_bits(terms: IntTerms) -> int:
    return max((abs(c).bit_length() for c in terms.values()), default=0)


def _check_bits(work: IntTerms, tail: IntTerms, guard: GuardConfig) -> None:
    if max(_max_bits(work), _max_bits(tail)) > guard.max_coeff_bits:
        raise ResourceGuardError(
            f"coefficient size exceeded {guard.max_coeff_bits} bits during reduction"
        )


def _normalize_element(terms: IntTerms, key: OrderKey) -> IntTerms:
    """Primitive form with positive leading coefficient under the order."""
    terms = _strip_content(terms)
    if terms and terms[max(terms, key=key)] < 0:
        terms = {m: -c for m, c in terms.items()}
    return terms


def _spoly(f: _Element, g: _Element, key: OrderKey) -> IntTerms:
    tau = mono_lcm(f.lm, g.lm)
    d = math.gcd(f.lc, g.lc)
    mf, cf = mono_div(tau, f.lm), g.lc // d
    mg, cg = mono_div(tau, g.lm), f.lc // d
    terms: IntTerms = {}
    for mono, coeff in f.terms.items():
        terms[mono_mul(mono, mf)] = cf * coeff
    for mono, coeff in g.terms.items():
        m = mono_mul(mono, mg)
        c = terms.get(m, 0) - cg * coeff
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
    return terms


def _reduce_full(terms: IntTerms, basis: list[_Element], key: OrderKey, guard: GuardConfig) -> IntTerms:
    """Full normal form modulo the basis, returned primitive.

    Fraction free: when the leading monomial of the work polynomial is
    divisible by some basis leading monomial, both the work polynomial
    and the remainder collected so far are scaled by the basis leading
    coefficient before subtracting, so everything stays integral.
    """
    work = dict(terms)
    tail: IntTerms = {}
    steps = 0
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        reducer = None
        for g in basis:
            if mono_divides(g.lm, mono):
                reducer = g
                break
        if reducer is None:
            tail[mono] = coeff
            continue
        d = math.gcd(coeff, reducer.lc)
        scale = reducer.lc // d
        mult = coeff // d
        shift = mono_div(mono, reducer.lm)
        if scale != 1:
            for m in work:
                work[m] *= scale
            for m in tail:
                tail[m] *= scale
        for m, c in reducer.terms.items():
            if m == reducer.lm:
                continue
            mm = mono_mul(m, shift)
            cc = work.get(mm, 0) - mult * c
            if cc:
                work[mm] = cc
            else:
                work.pop(mm, None)
        steps += 1
        if steps % _STRIP_INTERVAL == 0:
            work, tail = _joint_strip(work, tail)
            _check_bits(work, tail, guard)
    return _strip_content(tail)


def _update_pairs(
    basis: list[_Element],
    pairs: set[tuple[int, int]],
    t: int,
    key: OrderKey,
) -> None:
    """Gebauer-Moeller pair update for the element at index ``t``.

    Candidate pairs whose lcm is a multiple of another candidate's lcm
    are discarded, pairs with coprime leading monomials are discarded
    after serving as discarders, and old pairs subsumed by the new
    leading monomial are dropped.
    """
    lm_t = basis[t].lm
    lcms = {i: mono_lcm(basis[i].lm, lm_t) for i in range(t)}
    coprime = {
        i: all(a == 0 or b == 0 for a, b in zip(basis[i].lm, lm_t)) for i in range(t)
    }
    pending = list(range(t))
    selected: list[int] = []
    while pending:
        i = pending.pop()
        if coprime[i] or not any(
            mono_divides(lcms[j], lcms[i]) for j in (*pending, *selected)
        ):
            selected.append(i)
    fresh = {(i, t) for i in selected if not coprime[i]}
    survivors = set()
    for i, j in pairs:
        tau = mono_lcm(basis[i].lm, basis[j].lm)
        if (
            not mono_divides(lm_t, tau)
            or lcms[i] == tau
            or lcms[j] == tau
        ):
            survivors.add((i, j))
    pairs.clear()
    pairs.update(survivors | fresh)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def buchberger(
    gens: list[Poly],
    key: OrderKey = grevlex_key,
    guard: GuardConfig = GuardConfig(),
) -> list[Poly]:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Elements come back monic over the rationals, sorted by ascending
    leading monomial, so equal ideals under the same order produce
    literally equal bases regardless of generator order.
    """
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    ring = nonzero[0].ring
    for g in nonzero:
        if g.ring != ring:
            raise ValueError("generators live in different rings")

    basis: list[_Element] = []
    pairs: set[tuple[int, int]] = set()
    for g in nonzero:
        terms = _normalize_element(_to_int_terms(g), key)
        reduced = _reduce_full(terms, basis, key, guard) if basis else terms
        if reduced:
            basis.append(_Element(_normalize_element(reduced, key), key))
            _update_pairs(basis, pairs, len(basis) - 1, key)

    heap = [(key(mono_lcm(basis[i].lm, basis[j].lm)), i, j) for i, j in pairs]
    heapq.heapify(heap)
    live = set(pairs)
    while heap:
        _, i, j = heapq.heappop(heap)
        if (i, j) not in live:
            continue
        live.discard((i, j))
        s = _spoly(basis[i], basis[j], key)
        remainder = _reduce_full(s, basis, key, guard)
        if not remainder:
            continue
        if len(basis) >= guard.max_basis:
            raise ResourceGuardError(f"basis size exceeded {guard.max_basis} elements")
        basis.append(_Element(_normalize_element(remainder, key), key))
        t = len(basis) - 1
        fresh = set(live)
        _update_pairs(basis, fresh, t, key)
        for pair in fresh - live:
            heapq.heappush(heap, (key(mono_lcm(basis[pair[0]].lm, basis[pair[1]].lm)), *pair))
        live = fresh

    return _finalize(basis, ring, key, guard)


def _finalize(basis: list[_Element], ring: Ring, key: OrderKey, guard: GuardConfig) -> list[Poly]:
    """Minimalize, interreduce, and return monic rational polynomials."""
    ordered = sorted(basis, key=lambda e: key(e.lm))
    minimal: list[_Element] = []
    for e in ordered:
        if not any(mono_divides(kept.lm, e.lm) for kept in minimal):
            minimal.append(e)
    reduced: list[_Element] = list(minimal)
    for i in range(len(reduced)):
        others = reduced[:i] + reduced[i + 1 :]
        terms = _reduce_full(reduced[i].terms, others, key, guard)
        reduced[i] = _Element(_normalize_element(terms, key), key)
    out = []
    for e in reduced:
        lc = Fraction(e.lc)
        out.append(Poly(ring, {m: Fraction(c) / lc for m, c in e.terms.items()}))
    return out


def _linear_substitutions(
    gens: list[Poly], elim: list[str]
) -> tuple[list[Poly], list[str]]:
    """Use generators of the shape ``c*x + h`` (``c`` a nonzero constant,
    ``x`` a variable to eliminate, ``h`` free of ``x``) to substitute
    ``x := -h/c`` everywhere, dropping the generator and the variable.

    Each substitution maps the ideal onto its image in the smaller ring
    and leaves the elimination ideal over the kept variables unchanged,
    so this is a pure preprocessing win before the block-order run.
    """
    gens = list(gens)
    elim = list(elim)
    changed = True
    while changed:
        changed = False
        for gi, g in enumerate(gens):
            ring = g.ring
            hit = None
            for name in elim:
                if name not in ring or g.degree_in(name) != 1:
                    continue
                idx = ring.index(name)
                linear: dict[Monomial, Fraction] = {}
                rest: dict[Monomial, Fraction] = {}
                for mono, coeff in g.terms.items():
                    if mono[idx] == 1:
                        linear[mono] = coeff
                    elif mono[idx] == 0:
                        rest[mono] = coeff
                    else:
                        linear = {}
                        break
                if len(linear) != 1:
                    continue
                (mono,) = linear
                if sum(mono) != 1:
                    continue
                hit = (name, idx, linear[mono], Poly(ring, rest))
                break
            if hit is None:
                continue
            name, idx, c, h = hit
            small = ring.without([name])
            image = h.restrict(small) * (Fraction(-1) / c)
            replaced = []
            for gj, other in enumerate(gens):
                if gj == gi:
                    continue
                replaced.append(other.substitute({name: image}, ring=small))
            gens = replaced
            elim.remove(name)
            changed = True
            break
    return gens, elim


def eliminate(
    gens: list[Poly],
    names: list[str],
    guard: GuardConfig = GuardConfig(),
) -> list[Poly]:
    """Reduced Groebner basis of the elimination ideal.

    Intersects the ideal generated by ``gens`` with the subring of
    variables not listed in ``names``; the result lives in that subring
    under graded reverse lex and keeps the original variable order.
    """
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        return []
    ring = nonzero[0].ring
    for name in names:
        ring.index(name)

    pre, remaining = _linear_substitutions(nonzero, list(names))
    pre = [g for g in pre if not g.is_zero()]
    if not pre:
        return []
    work_ring = pre[0].ring
    remaining = [n for n in remaining if n in work_ring]
    if not remaining:
        # Pre-substitution removed every elimination variable, so the
        # working ring already is the kept ring.
        return buchberger(pre, key=grevlex_key, guard=guard)

    # Substitution drops variables without reordering the rest, so the
    # kept block follows the original variable order, and the block
    # order restricted to it is graded reverse lex.
    kept_ring = work_ring.without(remaining)
    block_ring = Ring((*remaining, *kept_ring.names))
    depth = len(remaining)
    gb = buchberger([g.embed(block_ring) for g in pre], key=block_key(depth), guard=guard)
    return [g.restrict(kept_ring) for g in gb if not any(any(m[:depth]) for m in g.terms)]


def principal_generator(basis: list[Poly]) -> Poly:
    """The single element of a one-element basis."""
    if len(basis) != 1:
        raise NotPrincipalError(
            f"expected a principal ideal, basis has {len(basis)} elements"
        )
    return basis[0]
