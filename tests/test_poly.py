"""Sparse polynomial ring: arithmetic, orders, printing, parsing."""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from areapoly import poly
from areapoly.poly import (
    NotHomogeneousError,
    Poly,
    PolySyntaxError,
    Ring,
    _block_rows,
    _lex_packing,
    _Packing,
    canonical_str,
    exact_quotient,
    mono_mul,
    parse_polynomial,
    poly_divmod,
)
from areapoly.triangulation import diagonal_family
from areapoly.variety import diagonal_relation_formula, relation_ring

XYZ = Ring(("x", "y", "z"))

# Every syntax error of the reader over XYZ, with its text and position.
PARSE_ERRORS = {
    "x**2": "expected a coefficient or variable, got '*' at position 2",
    "x + ": "unexpected end of polynomial text at position 4",
    "+x": "polynomial may not start with '+' (position 0)",
    "x 2": "expected '+' or '-' between terms, got '2' at position 2",
    "x^y": "expected integer exponent after '^' at position 2 (note '**' is invalid)",
    "1/0": "zero denominator at position 2",
    "w + 1": "unknown variable 'w' at position 0 (ring has ('x', 'y', 'z'))",
    "x @ y": "unexpected character '@' at position 2",
    "": "empty polynomial text",
    "1" + "0" * 5000: "integer at position 0 is too long",
    "x ? y": "unexpected character '?' at position 2",
    "1/x": "expected integer denominator after '/' at position 2",
    "   ": "empty polynomial text",
    "-": "unexpected end of polynomial text at position 1",
    "x*": "unexpected end of polynomial text at position 2",
    "1/": "unexpected end of polynomial text at position 2",
    "2*x^": "unexpected end of polynomial text at position 4",
    "2/3/4": "expected '+' or '-' between terms, got '/' at position 3",
    "x - 2*3/0*y": "zero denominator at position 8",
}


# More reader inputs: valid text, blanks around and inside tokens, and
# characters that \d, \s and str.strip read alike.
TOKEN_TEXTS = [
    "x^2 + 2*x*y - 3/4*y + 1",
    "-3/4*x^2*y*x - x^3*y + 0*z + 2*y^0 + 7/7 - 3 + z - z",
    "  x\t*\ny  ^ 3 -\r\n 12 / 5  ",
    "x_1y + _z9 ",
    "\u0663*x + \u00a0y\u2003",
    "x\x1c+ y",
    "x + y $",
    "x +\u00a0\u00e9",
    "3x",
]


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The token scan that tries each named group of a match in turn."""
    token_re = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^]))")
    tokens = []
    pos = 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            at = pos + len(rest) - len(rest.lstrip())
            raise PolySyntaxError(f"unexpected character {text[at]!r} at position {at}")
        for kind in ("int", "name", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind), m.start(kind)))
                break
        pos = m.end()
    return tokens


def scan(tokenize, text: str) -> list[tuple[str, str, int]] | str:
    try:
        return tokenize(text)
    except PolySyntaxError as error:
        return str(error)


def used_names(poly: Poly) -> set[str]:
    return {n for i, n in enumerate(poly.ring.names) if any(m[i] for m in poly.terms)}


def build(**coeffs: int | str | Fraction) -> Poly:
    """Tiny builder: build(x2y='3/2') adds (3/2) * x^2 * y; digits after a
    variable letter give its exponent."""
    terms = {}
    for pattern, coeff in coeffs.items():
        expo = [0, 0, 0]
        i = 0
        while i < len(pattern):
            var = pattern[i]
            i += 1
            digits = ""
            while i < len(pattern) and pattern[i].isdigit():
                digits += pattern[i]
                i += 1
            expo[XYZ.index(var)] += int(digits) if digits else 1
        terms[tuple(expo)] = Fraction(coeff)
    return Poly(XYZ, terms)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)
monomials = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
polys = st.dictionaries(monomials, small_fractions, max_size=5).map(
    lambda terms: Poly(XYZ, terms)
)
points = st.fixed_dictionaries(
    {name: small_fractions for name in XYZ.names}
)
# Images of at most two terms keep substituted powers small.
images = st.one_of(
    small_fractions,
    st.dictionaries(monomials, small_fractions, max_size=2).map(lambda terms: Poly(XYZ, terms)),
)


class TestRing:
    def test_basicts(self):
        assert XYZ.index("y") == 1
        assert "z" in XYZ
        assert XYZ.without(["y"]).names == ("x", "z")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Ring(("a", "a"))

    def test_monomial_helpers(self):
        a, b = (1, 2, 0), (0, 1, 3)
        assert mono_mul(a, b) == (1, 3, 3)


def block_order(k: int):
    """Sort key of the block order on the first ``k`` of three variables."""
    return _Packing(_block_rows(k, 3), 3, width=8).pack


class TestOrders:
    def test_lex(self):
        key = _lex_packing(3, 8).pack
        assert key((2, 0, 0)) > key((1, 2, 0))

    def test_grevlex_degree_first(self):
        key = block_order(0)
        assert key((1, 1, 1)) > key((2, 0, 0))

    def test_grevlex_ties_break_on_last_variable(self):
        key = block_order(0)
        assert key((1, 1, 0)) > key((0, 0, 2))

    def test_block_order_separates(self):
        key = block_order(1)
        assert key((1, 0, 0)) > key((0, 3, 3))


class TestArithmetic:
    def test_frozen_product(self):
        left = build(x=1, y=-1)
        right = build(x=1, y=1)
        assert left * right == build(x2=1, y2=-1)

    def test_power(self):
        base = build(x=1, **{"": 1})
        assert base ** 3 == build(x3=1, x2=3, x=3, **{"": 1})

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        assert a * b == b * a
        assert a + b == b + a

    @given(polys, polys, points)
    @settings(max_examples=60, deadline=None)
    def test_evaluation_is_a_homomorphism(self, a, b, point):
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_substituting_variables_is_identity(self, a):
        images = {n: Poly.variable(XYZ, n) for n in XYZ.names}
        assert a.substitute(images) == a

    @given(polys, st.dictionaries(st.sampled_from(XYZ.names), images), points)
    @settings(max_examples=60, deadline=None)
    def test_substitute_is_a_ring_map(self, a, chosen, point):
        values = dict(point)
        for name, image in chosen.items():
            values[name] = image.evaluate(point) if isinstance(image, Poly) else image
        assert a.substitute(chosen).evaluate(point) == a.evaluate(values)

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_moving_to_a_larger_ring_and_back_is_identity(self, a):
        larger = Ring(("w", "z", "x", "v", "y"))
        assert a.substitute({}, ring=larger).substitute({}, ring=XYZ) == a

    @given(polys)
    @settings(max_examples=60, deadline=None)
    def test_moving_to_a_smaller_ring_needs_the_dropped_variable_absent(self, a):
        smaller = Ring(("z", "x"))
        if "y" in used_names(a):
            with pytest.raises(ValueError):
                a.substitute({}, ring=smaller)
        else:
            assert a.substitute({}, ring=smaller).substitute({}, ring=XYZ) == a

    def test_substitute_into_other_ring(self):
        target = Ring(("u", "v"))
        a = build(x2=1, y=1)
        image = a.substitute(
            {"x": Poly.variable(target, "u"), "y": Poly.variable(target, "v") * 2,
             "z": 0},
            ring=target,
        )
        assert canonical_str(image) == "u^2 + 2*v"


class TestDegreesAndShape:
    def test_degrees(self):
        a = build(x2y=1, z=1)
        assert a.total_degree() == 3
        assert Poly.zero(XYZ).total_degree() == -1

    def test_homogeneous_degree(self):
        assert build(x2=1, yz=2).homogeneous_degree() == 2
        with pytest.raises(NotHomogeneousError):
            build(x2=1, y=1).homogeneous_degree()

    def test_weighted_degree(self):
        a = build(x2=1, yz=2)
        assert a.weighted_degree({"x": 2, "y": 3, "z": 1}) == 4
        with pytest.raises(NotHomogeneousError):
            a.weighted_degree({"x": 1, "y": 3, "z": 1})

    def test_content_and_primitive(self):
        a = build(x=Fraction(3, 4), y=Fraction(-9, 2))
        content, primitive = a.content_and_primitive()
        assert content * primitive == a
        assert primitive == build(x=1, y=-6)

    def test_content_sign_follows_canonical_first_term(self):
        a = build(x=Fraction(-3, 4), y=Fraction(9, 2))
        content, primitive = a.content_and_primitive()
        assert primitive == build(x=1, y=-6)
        assert content == Fraction(-3, 4)

    def test_primitive_part_is_integer_with_a_positive_first_term(self):
        a = build(x2=Fraction(-6, 5), y=Fraction(4, 15), **{"": Fraction(-2, 3)})
        content, primitive = a.content_and_primitive()
        assert content == Fraction(-2, 15)
        assert primitive == build(x2=9, y=-2, **{"": 5})
        assert all(c.denominator == 1 for c in primitive.terms.values())
        assert (-a).content_and_primitive() == (-content, primitive)

    def test_degree_errors(self):
        zero = Poly.zero(XYZ)
        for degree in (zero.homogeneous_degree, lambda: zero.weighted_degree({"x": 1})):
            with pytest.raises(NotHomogeneousError) as caught:
                degree()
            assert str(caught.value) == "zero polynomial has no homogeneous degree"
        with pytest.raises(NotHomogeneousError) as caught:
            build(x2=1, y=1).homogeneous_degree()
        assert str(caught.value) == "terms have distinct weighted degrees [1, 2]"

    def test_partial_derivative(self):
        a = build(x2y=1, z=1)
        assert a.partial("x") == build(xy=2)


class TestDivision:
    @given(polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_multiply_then_divide(self, a, b):
        if b.is_zero():
            return
        quotient, remainder = poly_divmod(a * b, b)
        assert remainder.is_zero()
        assert quotient == a

    def test_exact_quotient_none_when_not_divisible(self):
        assert exact_quotient(build(x2=1, **{"": 1}), build(y=1)) is None


def reference_evaluate(poly: Poly, assignment: dict) -> Fraction:
    """The ``Fraction`` loop that ``Poly.evaluate`` ran before it moved to
    integers over a common denominator."""
    values: dict[int, Fraction] = {}
    for name in used_names(poly):
        if name not in assignment:
            raise KeyError(f"no value for variable {name!r}")
        values[poly.ring.index(name)] = Fraction(assignment[name])
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        acc = coeff
        for i, e in enumerate(mono):
            if e:
                acc *= values[i] ** e
        total += acc
    return total


def random_scalar(rng: random.Random) -> int | Fraction:
    """An ``int`` or a ``Fraction``, zero about one time in nineteen, over
    denominators that are mostly coprime to each other."""
    num = rng.randint(-9, 9)
    den = rng.choice((1, 2, 3, 5, 7, 8, 9, 25))
    return num if den == 1 and rng.random() < 0.5 else Fraction(num, den)


def random_poly(rng: random.Random) -> Poly:
    """A non-homogeneous polynomial of degree at most 5 with rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 8)):
        mono = tuple(rng.randint(0, 2) for _ in XYZ.names)
        terms[mono] = random_scalar(rng)
    return Poly(XYZ, terms)


class TestEvaluate:
    """``Poly.evaluate`` against the ``Fraction`` reference: same value, same type."""

    @staticmethod
    def check(poly: Poly, point: dict) -> None:
        value, want = poly.evaluate(point), reference_evaluate(poly, point)
        assert value == want
        assert type(value) is type(want) is Fraction

    @pytest.mark.parametrize("seed", range(20))
    def test_random_polynomials_match_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            poly = random_poly(rng)
            self.check(poly, {name: random_scalar(rng) for name in XYZ.names})

    @pytest.mark.parametrize(
        "point",
        [
            {"x": 0, "y": 0, "z": 0},
            {"x": 2, "y": -3, "z": 5},
            {"x": Fraction(1, 2), "y": Fraction(1, 3), "z": Fraction(-1, 5)},
            {"x": Fraction(0), "y": Fraction(7, 9), "z": 4},
            {"x": Fraction(3, 4), "y": Fraction(5, 6), "z": Fraction(-7, 10)},
        ],
    )
    def test_special_polynomials(self, point):
        for poly in (
            Poly.zero(XYZ),
            Poly.constant(XYZ, 7),
            Poly.constant(XYZ, Fraction(-5, 3)),
            build(x3=Fraction(1, 2), y=Fraction(-2, 3), **{"": Fraction(5, 7)}),
            build(x2y=1, yz2=-2, x3=Fraction(1, 4)),
            build(xyz=Fraction(3, 10), z4=6),
        ):
            self.check(poly, point)

    def test_constants_need_no_values(self):
        assert Poly.zero(XYZ).evaluate({}) == 0
        assert Poly.constant(XYZ, Fraction(-5, 3)).evaluate({}) == Fraction(-5, 3)

    def test_missing_variable_message(self):
        poly = build(x2=1, y=Fraction(1, 2))
        with pytest.raises(KeyError) as got:
            poly.evaluate({"x": Fraction(1, 3), "z": 1})
        with pytest.raises(KeyError) as want:
            reference_evaluate(poly, {"x": Fraction(1, 3), "z": 1})
        assert str(got.value) == str(want.value) == "\"no value for variable 'y'\""


def reference_substitute(poly: Poly, images: dict, ring: Ring | None = None) -> Poly:
    """The ``Poly`` loop that ``Poly.substitute`` ran before it moved to
    packed monomials and ``int`` coefficients."""
    target = ring if ring is not None else poly.ring
    mapped: list[tuple[int, Poly]] = []
    carried: list[tuple[int, int]] = []
    for i, name in enumerate(poly.ring.names):
        if name in images:
            img = images[name]
            if isinstance(img, (int, Fraction)):
                img = Poly.constant(target, img)
            elif img.ring != target:
                raise ValueError(f"image of {name!r} lives in the wrong ring")
            mapped.append((i, img))
        elif name in target:
            carried.append((i, target.index(name)))
        elif any(mono[i] for mono in poly.terms):
            raise ValueError(f"variable {name!r} occurs; the ring {target.names} lacks it")
    groups: dict = {}
    for mono, coeff in poly.terms.items():
        moved = [0] * len(target)
        for i, j in carried:
            moved[j] = mono[i]
        groups.setdefault(tuple(mono[i] for i, _ in mapped), {})[tuple(moved)] = coeff
    powers: dict = {}
    result = Poly.zero(target)
    for exponents, terms in groups.items():
        piece = Poly(target, terms)
        for (i, img), e in zip(mapped, exponents):
            if e:
                if (i, e) not in powers:
                    powers[(i, e)] = img**e
                piece = piece * powers[(i, e)]
        result = result + piece
    return result


def reference_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """The ``Poly`` loop that ``poly_divmod`` ran before it moved to a heap
    of packed monomials with ``int`` coefficients."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    g_mono = max(g.terms)
    g_coeff = g.terms[g_mono]
    quot = Poly.zero(f.ring)
    rem = Poly.zero(f.ring)
    work = f
    while not work.is_zero():
        mono = max(work.terms)
        coeff = work.terms[mono]
        if all(x <= y for x, y in zip(g_mono, mono)):
            t = Poly(f.ring, {tuple(x - y for x, y in zip(mono, g_mono)): coeff / g_coeff})
            quot = quot + t
            work = work - t * g
        else:
            t = Poly(f.ring, {mono: coeff})
            rem = rem + t
            work = work - t
    return quot, rem


def random_poly_in(rng: random.Random, ring: Ring, size: int, top: int = 2) -> Poly:
    """Up to ``size`` terms with rational coefficients and exponents up to ``top``."""
    terms = {}
    for _ in range(rng.randint(0, size)):
        terms[tuple(rng.randint(0, top) for _ in ring.names)] = random_scalar(rng)
    return Poly(ring, terms)


def random_image(rng: random.Random, ring: Ring):
    """A scalar, a zero, a variable, ``c * x_j`` or a polynomial of several terms."""
    kind = rng.randrange(6)
    if kind == 0:
        return random_scalar(rng)
    if kind == 1:
        return rng.choice((0, Fraction(0), Poly.zero(ring)))
    name = rng.choice(ring.names)
    if kind == 2:
        return Poly.variable(ring, name)
    if kind == 3:
        return Poly.variable(ring, name) * random_scalar(rng)
    image = random_poly_in(rng, ring, 3, top=1)
    return image + Poly.variable(ring, name) if len(image.terms) < 2 else image


def assert_same_poly(got: Poly, want: Poly) -> None:
    assert got == want
    assert got.ring == want.ring
    assert all(type(c) is Fraction for c in got.terms.values())


class TestSubstituteReference:
    """``Poly.substitute`` against the ``Poly`` loop: same terms, all ``Fraction``."""

    TARGETS = (XYZ, Ring(("u", "v")), Ring(("z", "w", "x", "v", "y")), Ring(("x", "z")))

    @pytest.mark.parametrize("seed", range(30))
    def test_random_images_match_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(12):
            poly = random_poly_in(rng, XYZ, 6)
            target = rng.choice(self.TARGETS)
            images = {
                name: random_image(rng, target)
                for name in XYZ.names
                if name not in target or rng.random() < 0.6
            }
            assert_same_poly(poly.substitute(images, ring=target), reference_substitute(poly, images, target))

    @pytest.mark.parametrize("seed", range(10))
    def test_moves_between_rings_match_reference(self, seed):
        rng = random.Random(100 + seed)
        for target in self.TARGETS[2:]:
            poly = random_poly_in(rng, XYZ, 8)
            if used_names(poly) <= set(target.names):
                want = reference_substitute(poly, {}, target)
                assert_same_poly(poly.substitute({}, ring=target), want)
                assert_same_poly(want.substitute({}, ring=XYZ), poly)
            else:
                with pytest.raises(ValueError, match="occurs; the ring"):
                    poly.substitute({}, ring=target)

    def test_errors_match_reference(self):
        poly = build(x2=1, y=Fraction(1, 2))
        other = Ring(("u",))
        for images, ring in (({"x": Poly.variable(other, "u")}, None), ({}, other)):
            with pytest.raises(ValueError) as got:
                poly.substitute(images, ring=ring)
            with pytest.raises(ValueError) as want:
                reference_substitute(poly, images, ring)
            assert str(got.value) == str(want.value)

    def test_high_powers_of_rational_images(self):
        poly = build(x9=Fraction(2, 3), x4y5=-1, z9=Fraction(5, 7))
        images = {"x": build(x=Fraction(1, 2), y=Fraction(-3, 4)), "z": Fraction(7, 5)}
        assert_same_poly(poly.substitute(images), reference_substitute(poly, images))


class TestDivisionReference:
    """``poly_divmod`` and ``exact_quotient`` against the ``Poly`` loop."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_divisions_match_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            f, g = random_poly_in(rng, XYZ, 7), random_poly_in(rng, XYZ, 4)
            if g.is_zero():
                continue
            got, want = poly_divmod(f, g), reference_divmod(f, g)
            for a, b in zip(got, want):
                assert_same_poly(a, b)
            quotient = exact_quotient(f, g)
            assert (quotient is None) == (not want[1].is_zero())
            product = f * g
            assert_same_poly(exact_quotient(product, g), reference_divmod(product, g)[0])

    def test_fields_outgrown_by_a_non_homogeneous_divisor(self):
        f, g = build(x30=Fraction(1, 3)), build(x=2, y5=-3)
        got, want = poly_divmod(f, g), reference_divmod(f, g)
        for a, b in zip(got, want):
            assert_same_poly(a, b)
        assert max(m[1] for m in got[1].terms) == 150

    def test_stripping_keeps_the_quotient_and_the_scale(self):
        # 40 steps from x^40 to z^40, past the strip every 32 steps.  Every
        # numerator is a multiple of 7^5 and the divisor's leading
        # coefficient is -4/3, so each step scales by 8 over a gcd and the
        # strip divides the work and the quotient by 7^5 or more.
        f = build(x40=Fraction(7**5, 3), x2y=Fraction(2 * 7**5, 9), y=-7**5)
        g = build(x=Fraction(-4, 3), z=Fraction(5, 2))
        got, want = poly_divmod(f, g), reference_divmod(f, g)
        for a, b in zip(got, want):
            assert_same_poly(a, b)
        assert len(got[0].terms) > 32 and not got[1].is_zero()

    def test_remainder_after_many_quotient_terms(self):
        # Under lex the remainder term z/5 comes after all 41 quotient
        # terms, those of (x + y)^40.
        g = build(x=1, y=-2)
        q = build(x=1, y=1) ** 40
        f = q * g + build(z=Fraction(1, 5))
        assert exact_quotient(f, g) is None
        got, want = poly_divmod(f, g), reference_divmod(f, g)
        for a, b in zip(got, want):
            assert_same_poly(a, b)
        assert got == (q, build(z=Fraction(1, 5)))


class TestCanonicalText:
    def test_frozen_examples(self):
        assert canonical_str(Poly.zero(XYZ)) == "0"
        assert canonical_str(build(**{"": -5})) == "-5"
        poly = build(x2=1, xy=2, y=Fraction(-3, 4), **{"": 1})
        assert canonical_str(poly) == "x^2 + 2*x*y - 3/4*y + 1"

    def test_fractional_and_negative_coefficients(self):
        poly = build(x2=Fraction(-1, 3), xy=-1, y=Fraction(7, 2), z=-12, **{"": Fraction(-5, 8)})
        assert canonical_str(poly) == "-1/3*x^2 - x*y + 7/2*y - 12*z - 5/8"
        assert canonical_str(-poly) == "1/3*x^2 + x*y - 7/2*y + 12*z + 5/8"
        assert canonical_str(build(y=Fraction(-1, 2))) == "-1/2*y"
        assert canonical_str(build(**{"": Fraction(3, 4)})) == "3/4"

    def test_graded_order_largest_degree_first(self):
        poly = build(x=1, y3=1)
        assert canonical_str(poly) == "y^3 + x"

    @given(polys)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, a):
        assert parse_polynomial(canonical_str(a), XYZ) == a

    @pytest.mark.parametrize("bad", list(PARSE_ERRORS))
    def test_parser_rejects(self, bad):
        with pytest.raises(PolySyntaxError) as caught:
            parse_polynomial(bad, XYZ)
        assert str(caught.value) == PARSE_ERRORS[bad]

    def test_round_trip_of_a_large_relation(self):
        relation = diagonal_relation_formula(5)
        assert len(relation.terms) == 5797
        ring = relation_ring(diagonal_family(5))
        assert parse_polynomial(canonical_str(relation), ring) == relation

    @pytest.mark.parametrize("text", [*PARSE_ERRORS, *TOKEN_TEXTS])
    def test_token_scan_matches_the_group_by_group_scan(self, text):
        assert scan(poly._tokenize, text) == scan(reference_tokenize, text)

    def test_token_scan_of_a_large_relation(self):
        text = canonical_str(diagonal_relation_formula(5))
        assert poly._tokenize(text) == reference_tokenize(text)
        broken = text[:1000] + "#" + text[1000:]
        assert scan(poly._tokenize, broken) == scan(reference_tokenize, broken)
        assert scan(poly._tokenize, broken) == "unexpected character '#' at position 1000"

    @pytest.mark.parametrize(
        "text", ["x" + " " * 10**5, " " * 10**5 + "$"], ids=["trailing", "before-a-bad-character"]
    )
    def test_token_scan_reads_a_long_blank_run_once(self, text):
        # A scan that searched for each next token would retry the blank
        # run from each of its 10^5 starts: minutes, not milliseconds.
        started = time.perf_counter()
        outcome = scan(poly._tokenize, text)
        assert time.perf_counter() - started < 1
        assert outcome in ([("name", "x", 0)], "unexpected character '$' at position 100000")

    def test_parsing_does_no_polynomial_arithmetic(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Poly arithmetic while parsing")

        for op in ("__add__", "__radd__", "__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(Poly, op, refuse)
        text = "-3/4*x^2*y*x - x^3*y + 0*z + 2*y^0 + 7/7 - 3 + z - z"
        assert parse_polynomial(text, XYZ).terms == {(3, 1, 0): Fraction(-7, 4)}
