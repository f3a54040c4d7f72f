"""Sparse multivariate polynomials over the rationals.

A :class:`Ring` fixes an ordered tuple of variable names.  Monomials are
dense exponent tuples aligned with that order (small rings only, so
dense tuples are cheap and hashable), and a :class:`Poly` is a mapping
from monomial to nonzero ``Fraction`` coefficient.

The heavy operations pack each monomial into one Python int (packed
exponent vectors, as in Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", CASC 2007) and work
on ``int`` coefficients over one common denominator: ``Poly.substitute``
here, and one fraction-free heap reduction, ``_heap_reduce``, that both
``poly_divmod`` and the Groebner engine's normal forms run.  A packing
states its monomial order as 0/1 weight rows above the exponents.  There
are two: no rows (lex) for division and substitution, and the block
order of :func:`_block_rows` for the Groebner engine, where the size of
the eliminated block picks the order and a block of size 0 is graded
reverse lex.

The canonical text format for polynomials is graded lexicographic,
largest term first, with explicit ``*`` and ``^`` and coefficients
written as ``num/den``.  ``canonical_str`` and ``parse_polynomial`` are
inverse to each other on canonical output.  The reader walks the tokens
once, adding each term's coefficient and exponents into one dict, so it
runs in time linear in the text.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .exact import clear_denominators

__all__ = [
    "Ring",
    "Poly",
    "Monomial",
    "NotHomogeneousError",
    "PolySyntaxError",
    "mono_mul",
    "poly_divmod",
    "exact_quotient",
    "canonical_str",
    "parse_polynomial",
]

Monomial = tuple[int, ...]
Scalar = Fraction | int


class NotHomogeneousError(ValueError):
    """Raised when a polynomial expected to be homogeneous is not."""


class PolySyntaxError(ValueError):
    """Raised when polynomial text does not match the canonical grammar."""


# ---------------------------------------------------------------------------
# rings and monomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ring:
    """An ordered list of variable names; the order fixes monomial layout."""

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {self.names}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise KeyError(f"variable {name!r} not in ring {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index  # type: ignore[attr-defined]

    def without(self, names: Iterable[str]) -> "Ring":
        drop = set(names)
        return Ring(tuple(n for n in self.names if n not in drop))

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.names)

    def var_monomial(self, name: str) -> Monomial:
        i = self.index(name)
        return tuple(1 if j == i else 0 for j in range(len(self.names)))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def _graded_lex(mono: Monomial) -> tuple[int, Monomial]:
    """Ascending graded lex key; canonical text puts the largest term first."""
    return sum(mono), mono


# ---------------------------------------------------------------------------
# packed monomials, heap reduction and division
# ---------------------------------------------------------------------------


# Narrowest packed field: room for degree 127 before a run must re-pack.
_MIN_FIELD_BITS = 8


class _FieldOverflow(Exception):
    """A packed field would reach its guard bit; retry with wider fields."""


def _block_rows(k: int, n: int) -> list[range]:
    """The weight rows of the block order on ``n`` variables: graded
    reverse lex on the first ``k`` dominating graded reverse lex on the
    rest, so ``k = 0`` is plain graded reverse lex.  A monomial holding
    any of the first ``k`` variables is larger than every monomial free
    of them.

    Each row sums the exponents of a range of variables.  Within a block
    ``lo .. hi-1`` of equal degree, ``-e[hi-1]`` decides exactly as the
    partial sum ``e[lo] + ... + e[hi-2]`` does, and so on down the
    suffixes, so the block's degree followed by its suffix-dropped partial
    sums is graded reverse lex while every weight stays 0 or 1.
    """
    return [range(lo, end) for lo, hi in ((0, k), (k, n)) for end in range(hi, lo, -1)]


class _Packing:
    """Monomials of one ring under one order as single Python ints.

    Fields of ``width`` bits, highest first: the order's 0/1 weight rows
    (:func:`_block_rows` for the Groebner engine, none for
    :func:`_lex_packing`), then the exponents, which break any remaining
    tie as in lex.  Comparing packed ints is comparing monomials, and
    multiplying or dividing monomials is adding or subtracting them.  The
    top bit of every field is a guard bit that stays clear, so ``a``
    divides ``b`` exactly when ``(b - a) & guard == 0``.  Every field is
    at most the total degree, which :meth:`pack` checks; the callers
    check products against the guard bits before forming them.
    """

    __slots__ = ("units", "guard", "shifts", "mask", "limit", "size", "low", "top")

    def __init__(self, rows: list[range], n: int, width: int):
        fields = [*rows, *(range(i, i + 1) for i in range(n))]
        units = [0] * n
        for k, idx in enumerate(reversed(fields)):
            for i in idx:
                units[i] += 1 << (width * k)
        self.units = units
        self.guard = sum(1 << (width * k + width - 1) for k in range(len(fields)))
        self.shifts = [width * (n - 1 - i) for i in range(n)]
        self.mask = (1 << width) - 1
        self.limit = 1 << (width - 1)
        # With byte-wide fields the exponents are the low n bytes.
        self.size = n if width == 8 else 0
        self.low = (1 << (8 * n)) - 1
        self.top = width * (len(fields) - 1)

    def pack(self, mono: Sequence[int]) -> int:
        if sum(mono) >= self.limit:
            raise _FieldOverflow
        return sum(map(operator.mul, mono, self.units))

    def exponents(self, packed: int) -> Monomial:
        if self.size:
            return tuple((packed & self.low).to_bytes(self.size, "big"))
        mask = self.mask
        return tuple([(packed >> s) & mask for s in self.shifts])

    def block_degree(self, packed: int) -> int:
        """The top field: the first row's sum, which for :func:`_block_rows`
        with an eliminated block is the degree in that block."""
        return packed >> self.top


@functools.lru_cache(maxsize=64)
def _lex_packing(n: int, width: int) -> _Packing:
    """The packing of ``n`` variables with no weight rows (pure lex), built
    once per field width; division and substitution need no other order."""
    return _Packing([], n, width)


_STRIP_INTERVAL = 32


class _CoefficientOverflow(Exception):
    """A reduction's coefficients outgrew the bit limit it was given."""


class _Divisor:
    """A divisor on packed monomials: leading term, fieldwise bound ``top``, other terms."""

    __slots__ = ("lm", "lc", "top", "rest")

    def __init__(self, terms: dict[int, int]):
        self.lm = max(terms)
        self.lc = terms[self.lm]
        self.top = functools.reduce(operator.or_, terms)
        self.rest = [(m, c) for m, c in terms.items() if m != self.lm]


def _heap_reduce(
    terms: dict[int, int],
    divisors: Sequence[_Divisor],
    guard_bits: int,
    max_bits: int | None,
    quotient: list[list[int]] | None = None,
) -> tuple[dict[int, int], int | Fraction]:
    """Fraction-free normal form: the remainder ``R`` and scale ``S`` with
    ``S * terms == sum(q * d for divisors d) + R``.

    A term goes to the first divisor whose leading monomial divides it.
    Work, remainder and ``S`` are scaled by that divisor's leading
    coefficient over its gcd with the term's; every ``_STRIP_INTERVAL``
    steps their joint content is stripped, and unless ``max_bits`` is None
    a wider coefficient raises :class:`_CoefficientOverflow`.  A ``quotient``
    list, kept for one divisor, collects ``[shift, coefficient]`` terms of
    ``q``, scaled and stripped with the remainder.  The work is a dict beside
    a heap of its negated monomials; one that cancels is skipped when popped.
    """
    work = dict(terms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    tail: list[list[int]] = []
    kept = [tail] if quotient is None else [tail, quotient]
    scale: int | Fraction = 1
    steps = 0
    while heap:
        mono = -pop(heap)
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
                push(heap, -m)
            else:
                cc -= mult * c
                if cc:
                    work[m] = cc
                else:
                    del work[m]
        steps += 1
        if steps % _STRIP_INTERVAL == 0:
            g = 0
            for c in itertools.chain(work.values(), (t[1] for t in itertools.chain(*kept))):
                g = math.gcd(g, c)
                if g == 1:
                    break
            if g > 1:
                work = {m: c // g for m, c in work.items()}
                for t in itertools.chain(*kept):
                    t[1] //= g
                scale = Fraction(scale, g)
            if max_bits is not None:
                coeffs = [*work.values(), *(t[1] for t in tail)]
                if coeffs and max(max(coeffs), -min(coeffs)).bit_length() > max_bits:
                    raise _CoefficientOverflow
    return dict(tail), scale


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Divide by a single polynomial under lex: ``f == q * g + r`` where
    no term of ``r`` is divisible by the leading monomial of ``g``.

    Lex here is :func:`_lex_packing`, the packing with no weight rows.  The
    remainder vanishes exactly when ``g`` divides ``f``, and the quotient
    is then the same under every order.  This is ``_heap_reduce`` with
    ``g`` alone and the quotient kept, on fields sized from the input
    degree; a division that outgrows them starts over twice as wide.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    f._require_same_ring(g)
    den, coeffs = clear_denominators(list(f.terms.values()))
    g_den, g_coeffs = clear_denominators(list(g.terms.values()))
    if g.terms[max(g.terms)] < 0:  # else every step would scale by -1
        g_den, g_coeffs = -g_den, [-c for c in g_coeffs]
    width = max(_MIN_FIELD_BITS, max(f.total_degree(), g.total_degree()).bit_length() + 2)
    while True:
        packing = _lex_packing(len(f.ring), width)
        divisor = _Divisor(dict(zip(map(packing.pack, g.terms), g_coeffs)))
        quotient: list[list[int]] = []
        try:
            work = dict(zip(map(packing.pack, f.terms), coeffs))
            remainder, scale = _heap_reduce(work, [divisor], packing.guard, None, quotient)
            break
        except _FieldOverflow:
            width *= 2
    num, den = Fraction(scale * den).as_integer_ratio()
    q = {packing.exponents(m): Fraction(c * g_den * den, num) for m, c in quotient}
    r = {packing.exponents(m): Fraction(c * den, num) for m, c in remainder.items()}
    return _trusted(f.ring, q), _trusted(f.ring, r)


def exact_quotient(f: Poly, g: Poly) -> Poly | None:
    """``f / g`` when the division is exact, else None."""
    quotient, remainder = poly_divmod(f, g)
    return None if remainder else quotient


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Poly:
    """Immutable-by-convention sparse polynomial with Fraction coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Ring, terms: Mapping[Monomial, Scalar]):
        clean: dict[Monomial, Fraction] = {}
        width = len(ring)
        for mono, coeff in terms.items():
            if len(mono) != width:
                raise ValueError(f"monomial {mono} has wrong arity for ring {ring.names}")
            c = Fraction(coeff)
            if c:
                clean[mono] = c
        self.ring = ring
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Poly":
        return cls(ring, {})

    @classmethod
    def one(cls, ring: Ring) -> "Poly":
        return cls(ring, {ring.unit_monomial(): Fraction(1)})

    @classmethod
    def constant(cls, ring: Ring, value: Scalar) -> "Poly":
        return cls(ring, {ring.unit_monomial(): Fraction(value)})

    @classmethod
    def variable(cls, ring: Ring, name: str) -> "Poly":
        return cls(ring, {ring.var_monomial(name): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({canonical_str(self)!r})"

    def total_degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def coefficient_of_power(self, name: str, power: int) -> Fraction:
        """Scalar coefficient of the pure power ``name^power``."""
        i = self.ring.index(name)
        mono = tuple(power if j == i else 0 for j in range(len(self.ring)))
        return self.coefficient(mono)

    def constant_term(self) -> Fraction:
        return self.coefficient(self.ring.unit_monomial())

    def __iter__(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def _require_same_ring(self, other: "Poly") -> None:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring.names} vs {other.ring.names}")

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ring, other)
        self._require_same_ring(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = terms.get(mono, Fraction(0)) + coeff
            if c:
                terms[mono] = c
            else:
                terms.pop(mono, None)
        return _trusted(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _trusted(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ring, other)
        return self.__add__(-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self).__add__(other)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _trusted(self.ring, {m: k * c for m, k in self.terms.items()} if c else {})
        self._require_same_ring(other)
        terms: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = mono_mul(ma, mb)
                c = terms.get(mono, Fraction(0)) + ca * cb
                if c:
                    terms[mono] = c
                else:
                    terms.pop(mono, None)
        return _trusted(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structural operations --------------------------------------------

    def substitute(self, images: Mapping[str, "Poly | Scalar"], ring: Ring | None = None) -> "Poly":
        """Replace variables by polynomials or scalars of a target ring.

        Variables absent from ``images`` are carried across by name; one
        that the target ring lacks may only occur with exponent zero.
        With no images this moves a polynomial into another ring.

        Runs on ``int`` coefficients: those of ``self`` over their common
        denominator and those of the images over theirs, ``B``, with each
        term weighted by ``B`` to the degree it lacks on the substituted
        variables, and on target monomials packed into ints whose fields
        fit the degree bound.  An image of one term (a scalar, zero
        dropping the term, a carried variable or ``c * m``) maps each term
        on its own.  Only images of several terms expand: the terms are
        grouped by their exponents on those variables, and each group is
        multiplied once by the cached powers of the images.
        """
        target = ring if ring is not None else self.ring
        tops = [max(column) for column in zip(*self.terms)] or [0] * len(self.ring)
        carried: list[tuple[int, int]] = []
        chosen: list[tuple[int, dict[Monomial, Fraction]]] = []
        for i, name in enumerate(self.ring.names):
            if name in images:
                img = images[name]
                if isinstance(img, (int, Fraction)):
                    img = Poly.constant(target, img)
                elif img.ring != target:
                    raise ValueError(f"image of {name!r} lives in the wrong ring")
                if tops[i]:
                    chosen.append((i, img.terms))
            elif name in target:
                if tops[i]:
                    carried.append((i, target.index(name)))
            elif tops[i]:
                raise ValueError(f"variable {name!r} occurs; the ring {target.names} lacks it")

        bound = sum(tops[i] for i, _ in carried)
        bound += sum(tops[i] * max(map(sum, terms), default=0) for i, terms in chosen)
        packing = _lex_packing(len(target), max(_MIN_FIELD_BITS, bound.bit_length() + 1))
        den, coeffs = clear_denominators(list(self.terms.values()))
        img_den, img_coeffs = clear_denominators([c for _, t in chosen for c in t.values()])
        shared = iter(img_coeffs)
        moves = [(i, packing.units[j]) for i, j in carried]
        dropped, scales, multi, multi_at = [], [], [], []
        for i, terms in chosen:
            terms = dict(zip(map(packing.pack, terms), shared))
            if len(terms) > 1:
                multi.append(terms)
                multi_at.append(i)
            elif terms:
                ((mono, c),) = terms.items()
                moves.append((i, mono))
                if c != 1:
                    scales.append((i, c))
            else:
                dropped.append(i)
        move_at, move_by = [i for i, _ in moves], [m for _, m in moves]
        top, weights = 0, None
        if img_den > 1:
            at = [i for i, _ in chosen]
            top = max(sum(map(mono.__getitem__, at)) for mono in self.terms)
            weights = [img_den ** (top - k) for k in range(top + 1)]

        out: dict[int, int] = {}
        groups: dict[tuple[int, ...], dict[int, int]] = {}
        for mono, coeff in zip(self.terms, coeffs):
            if any(mono[i] for i in dropped):
                continue
            for i, c in scales:
                if mono[i]:
                    coeff *= c ** mono[i]
            if weights:
                coeff *= weights[sum(map(mono.__getitem__, at))]
            packed = sum(map(operator.mul, map(mono.__getitem__, move_at), move_by))
            group = groups.setdefault(tuple(map(mono.__getitem__, multi_at)), {}) if multi else out
            group[packed] = group.get(packed, 0) + coeff

        powers = [[img] for img in multi]  # powers[j][e - 1] is multi[j] ** e
        for key, piece in groups.items():
            for j, e in enumerate(key):
                if e:
                    ladder = powers[j]
                    while len(ladder) < e:
                        ladder.append(_int_product(ladder[-1], multi[j]))
                    piece = _int_product(piece, ladder[e - 1])
            for m, c in piece.items():
                out[m] = out.get(m, 0) + c
        scale = den * img_den**top
        return _trusted(
            target,
            {packing.exponents(m): Fraction(c, scale) for m, c in out.items() if c},
        )

    def evaluate(self, assignment: Mapping[str, Scalar]) -> Fraction:
        """Evaluate at rational values; every used variable must be assigned.

        Runs in ``int`` arithmetic: with the values over their common
        denominator ``D`` and the coefficients over theirs, ``C``, a term
        of degree ``k`` is weighted by ``D^(deg - k)``, so the value is
        the integer sum over ``C * D^deg``.
        """
        if not self.terms:
            return Fraction(0)
        names = self.ring.names
        used = [i for i, column in enumerate(zip(*self.terms)) if any(column)]
        for i in used:
            if names[i] not in assignment:
                raise KeyError(f"no value for variable {names[i]!r}")
        den, scaled = clear_denominators([Fraction(assignment[names[i]]) for i in used])
        cden, coeffs = clear_denominators(list(self.terms.values()))
        deg = self.total_degree()
        weights = [den ** (deg - k) for k in range(deg + 1)]
        total = 0
        for mono, coeff in zip(self.terms, coeffs):
            acc = coeff * weights[sum(mono)]
            for i, x in zip(used, scaled):
                e = mono[i]
                if e:
                    acc *= x**e
            total += acc
        return Fraction(total, cden * den**deg)

    def partial(self, name: str) -> "Poly":
        """Partial derivative with respect to one variable."""
        i = self.ring.index(name)
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if not e:
                continue
            lowered = tuple(x - 1 if j == i else x for j, x in enumerate(mono))
            terms[lowered] = terms.get(lowered, Fraction(0)) + coeff * e
        return Poly(self.ring, terms)

    def weighted_degree(self, weights: Mapping[str, int]) -> int:
        """Common weighted degree of all terms; raises if terms disagree."""
        w = [weights.get(name, 0) for name in self.ring.names]
        return _common_degree({sum(map(operator.mul, w, mono)) for mono in self.terms})

    def homogeneous_degree(self) -> int:
        """Common total degree of all terms; raises if not homogeneous."""
        return _common_degree(set(map(sum, self.terms)))

    def content_and_primitive(self) -> tuple[Fraction, "Poly"]:
        """Split into content times primitive part.

        The primitive part has coprime integer coefficients and its
        canonically first term (graded lex largest) has positive sign.
        Zero splits as (0, 0).
        """
        if not self.terms:
            return Fraction(0), self
        den, ints = clear_denominators(list(self.terms.values()))
        g = math.gcd(*ints)
        if self.terms[max(self.terms, key=_graded_lex)] < 0:
            g = -g
        primitive = {m: Fraction(c // g) for m, c in zip(self.terms, ints)}
        return Fraction(g, den), _trusted(self.ring, primitive)


def _common_degree(degrees: set[int]) -> int:
    """The one element of the term degrees ``degrees``; raises otherwise."""
    if not degrees:
        raise NotHomogeneousError("zero polynomial has no homogeneous degree")
    if len(degrees) != 1:
        raise NotHomogeneousError(f"terms have distinct weighted degrees {sorted(degrees)}")
    return degrees.pop()


def _trusted(ring: Ring, terms: dict[Monomial, Fraction]) -> Poly:
    """A ``Poly`` on terms of the ring's arity with nonzero ``Fraction``
    coefficients, taken as they are."""
    out = object.__new__(Poly)
    out.ring, out.terms = ring, terms
    return out


def _int_product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product of two polynomials on packed monomials with ``int`` coefficients."""
    out: dict[int, int] = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    return out


# ---------------------------------------------------------------------------
# canonical text format
# ---------------------------------------------------------------------------


def canonical_str(poly: Poly) -> str:
    """Graded lex text form, largest term first, explicit ``*`` and ``^``."""
    if poly.is_zero():
        return "0"
    names = poly.ring.names
    parts = []
    for mono in sorted(poly.terms, key=_graded_lex, reverse=True):
        coeff = poly.terms[mono]
        num, den = coeff.numerator, coeff.denominator
        sign, num = ("- ", -num) if num < 0 else ("+ ", num)
        scalar = str(num) if den == 1 else f"{num}/{den}"
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, mono) if e]
        if scalar != "1" or not factors:
            factors.insert(0, scalar)
        parts.append(sign + "*".join(factors))
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(rf"\s*(?:(?P<int>\d+)|(?P<name>{_NAME_RE.pattern})|(?P<op>[-+*/^]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` of each token, one anchored match each.

    Each match starts where the last one ended, so a run of blanks is
    scanned once; an unanchored search would rescan it from every start.
    """
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            at = pos + len(rest) - len(rest.lstrip())
            raise PolySyntaxError(
                f"unexpected character {text[at]!r} at position {at}"
            )
        kind = m.lastgroup
        at = m.start(kind)
        pos = m.end()
        tokens.append((kind, text[at:pos], at))
    return tokens


def _integer(text: str, at: int) -> int:
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts
        raise PolySyntaxError(f"integer at position {at} is too long") from None


def parse_polynomial(text: str, ring: Ring) -> Poly:
    """Parse canonical polynomial text over the given ring, in one pass.

    poly   := [sign] term (sign term)*
    term   := factor ('*' factor)*
    factor := rational | NAME ['^' INT]

    Strict about the grammar: ``**`` is rejected, every product needs an
    explicit ``*``, and only variables declared in the ring may appear.
    Syntax errors report the character position of the offense.  Each
    term is read into one coefficient and one exponent list and added
    into one dict, so the time is linear in the text.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolySyntaxError("empty polynomial text")
    # An operator token's text names its kind; the end marker's matches none.
    tokens.append(("end", "", len(text)))

    def take(i: int) -> tuple[str, str, int]:
        if tokens[i][0] == "end":
            raise PolySyntaxError(f"unexpected end of polynomial text at position {len(text)}")
        return tokens[i]

    if tokens[0][1] == "+":
        raise PolySyntaxError(f"polynomial may not start with '+' (position {tokens[0][2]})")
    i = int(tokens[0][1] == "-")
    sign = -1 if i else 1
    index = {name: j for j, name in enumerate(ring.names)}
    terms: dict[Monomial, Fraction] = {}
    while True:
        num, den, exps = sign, 1, [0] * len(index)
        while True:
            kind, tok, at = take(i)
            i += 1
            if kind == "int":
                num *= _integer(tok, at)
                if tokens[i][1] == "/":
                    kind, tok, at = take(i + 1)
                    i += 2
                    if kind != "int":
                        raise PolySyntaxError(
                            f"expected integer denominator after '/' at position {at}"
                        )
                    den *= _integer(tok, at)
                    if not den:
                        raise PolySyntaxError(f"zero denominator at position {at}")
            elif kind == "name":
                j = index.get(tok)
                if j is None:
                    raise PolySyntaxError(
                        f"unknown variable {tok!r} at position {at} (ring has {ring.names})"
                    )
                power = 1
                if tokens[i][1] == "^":
                    kind, tok, at = take(i + 1)
                    i += 2
                    if kind != "int":
                        raise PolySyntaxError(
                            f"expected integer exponent after '^' at position {at} "
                            "(note '**' is invalid)"
                        )
                    power = _integer(tok, at)
                exps[j] += power
            else:
                raise PolySyntaxError(
                    f"expected a coefficient or variable, got {tok!r} at position {at}"
                )
            if tokens[i][1] != "*":
                break
            i += 1
        mono = tuple(exps)
        c = terms.get(mono, 0) + Fraction(num, den)
        if c:
            terms[mono] = c
        else:
            terms.pop(mono, None)
        kind, tok, at = tokens[i]
        if kind == "end":
            return _trusted(ring, terms)
        if tok not in ("+", "-"):
            raise PolySyntaxError(
                f"expected '+' or '-' between terms, got {tok!r} at position {at}"
            )
        sign = 1 if tok == "+" else -1
        i += 1
