"""Area relation polynomials of a triangulated trapezoid.

Fix a combinatorial triangulation with triangles named ``B1, ..., Bn``
(any names work).  Every drawing gives one doubled area per triangle
plus the frame area ``U`` of the corner triangle ``(p, s, q)``, so
drawings trace out a subset of ``(U, B1, ..., Bn)`` space.  Because the
pinned gauge has exactly ``2 + 2i`` free parameters (``t``, ``lam`` and
one coordinate pair per interior vertex) against ``n + 1`` coordinates,
that image closes up into an irreducible hypersurface; its defining
polynomial is the trapezoid relation.  Setting the ratio ``t`` to one
first and dropping ``U`` instead yields the parallelogram relation.

Two independent routes compute these polynomials:

- one graph-ideal builder eliminates the gauge variables from
  ``{U - W_frame} + {Bi - Wi}`` with a block-order Groebner basis.
  Its two switches, whether the frame ``U`` is kept and whether ``t``
  is fixed to one, give :func:`trapezoid_polynomial` (frame, free
  ratio), :func:`parallelogram_polynomial` (no frame, ``t = 1``) and
  :func:`areas_algebraically_independent` (no frame, free ratio: the
  ideal must come out zero).  Triangle names that clash with ``U`` or
  the gauge coordinates raise :class:`NameCollisionError`;
- :func:`interpolated_relation` samples random drawings and solves an
  exact linear system for the lowest-degree homogeneous relation among
  the observed area vectors, never touching the Groebner machinery.
  :func:`rational_nullspace` solves it modulo 61-bit primes and lifts
  the kernel to Q by CRT and rational reconstruction, returning it only
  once it annihilates every row exactly.

The two routes must deliver literally the same normalized polynomial;
the test suite insists on it.

Every seeded check draws through :func:`random_integer_drawing` too:
:func:`verify_vanishing` evaluates a relation on ``Fraction(area, D^2)``
read off the :func:`_area_shapes` table (which vertex triple gives each
relation variable), and :func:`verify_parallelogram_frame_vanishing` is
its parallelogram mode, where the frame value ``U`` is minus half the
total area.  :func:`drawing_values` reads the same table's ``Fraction``
areas off a given drawing.

Normalization: relations are primitive integer polynomials.  A
trapezoid relation of degree ``d`` carries ``U^d`` with coefficient
one (it is monic in the frame variable); a parallelogram relation has
a positive coefficient on its canonically first term.

The module also provides the closed-form relation for the diagonal
staircase families, the restriction profile ``U^a * (U + B)^b`` of a
relation to a single triangle, and the doubling substitution
``U -> -(B1 + ... + Bn)``, ``Bi -> 2*Bi``, which lands in a multiple of
the parallelogram relation.
"""

from __future__ import annotations

import random
from bisect import bisect
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, isqrt, lcm, prod
from operator import mul
from typing import Iterable, Iterator

# random_drawing stays imported: perfbench/spans.py wraps variety.random_drawing by name.
from .areamap import Drawing, doubled_area, gauged_areas, random_drawing, random_integer_drawing
from .groebner import GuardConfig, ResourceGuardError, eliminate, principal_generator
from .poly import (
    Monomial,
    Poly,
    Ring,
    canonical_str,
    exact_quotient,
)
from .triangulation import CombinatorialTriangulation

__all__ = [
    "FRAME_VARIABLE",
    "NameCollisionError",
    "RelationShapeError",
    "FamilyIdentityError",
    "OracleError",
    "trapezoid_polynomial",
    "parallelogram_polynomial",
    "relation_ring",
    "gauge_parameter_count",
    "independence_rank",
    "areas_algebraically_independent",
    "diagonal_relation_formula",
    "is_frame_monic",
    "is_monic_in_every_variable",
    "frame_power_profile",
    "doubling_substitution",
    "family_quotient",
    "interpolated_relation",
    "verify_vanishing",
    "drawing_values",
    "verify_parallelogram_frame_vanishing",
    "rational_nullspace",
    "monomials_of_degree",
]

FRAME_VARIABLE = "U"
# The sampling oracle's degree sweep, its sample count per monomial, and
# the most monomials (nullspace columns) it solves for at one degree.
ORACLE_MAX_DEGREE = 8
ORACLE_SAMPLES_PER_MONOMIAL = 3
ORACLE_MAX_MONOMIALS = 100


class NameCollisionError(ValueError):
    """Triangle names clash with the frame variable or the gauge coordinates."""


class RelationShapeError(ValueError):
    """A computed relation violates an expected structural property."""


class FamilyIdentityError(ValueError):
    """The doubling substitution is not a multiple of the parallelogram relation."""


class OracleError(RuntimeError):
    """The sampling oracle could not pin down a unique relation."""


# ---------------------------------------------------------------------------
# elimination route
# ---------------------------------------------------------------------------


def _require_free_names(tri: CombinatorialTriangulation, reserved: list[str]) -> None:
    clash = sorted(set(tri.triangle_names).intersection(reserved))
    if clash:
        raise NameCollisionError(
            f"triangle names {', '.join(clash)} collide with the frame variable "
            "or the gauge coordinates; rename the triangles"
        )


def relation_ring(tri: CombinatorialTriangulation, with_frame: bool = True) -> Ring:
    """The ring of one variable per triangle, frame variable first."""
    names = tri.triangle_names
    if with_frame:
        _require_free_names(tri, [FRAME_VARIABLE])
        names = (FRAME_VARIABLE, *names)
    return Ring(names)


def gauge_parameter_count(tri: CombinatorialTriangulation) -> int:
    """Free parameters of the pinned gauge: ``t``, ``lam``, and one
    coordinate pair per interior vertex."""
    return 2 + 2 * len(tri.interior_vertices())


def _normalize_relation(poly: Poly, frame: str | None) -> Poly:
    """Primitive integer form with the documented sign convention."""
    _, prim = poly.content_and_primitive()
    if frame is not None and frame in prim.ring:
        top = prim.coefficient_of_power(frame, prim.total_degree())
        if top < 0:
            prim = -prim
    return prim


def _eliminate_areas(
    tri: CombinatorialTriangulation,
    frame: bool,
    ratio_fixed: bool,
    guard: GuardConfig,
) -> list[Poly]:
    """Eliminate the gauge from the graph ideal of the area map of ``tri``.

    The generators are ``U - W_frame`` (only with ``frame``) followed by
    ``Bi - Wi`` in triangulation order; with ``ratio_fixed`` every area
    polynomial is specialized to ``t = 1`` as it moves into the
    elimination ring.  Returns the reduced basis over the relation ring.
    """
    tri.require_valid()
    gauge = gauged_areas(tri)
    coords = gauge.ring.without(["t"]) if ratio_fixed else gauge.ring
    images = {FRAME_VARIABLE: gauge.frame} if frame else {}
    _require_free_names(tri, [*images, *coords.names])
    images.update(gauge.areas)
    big = Ring((*coords.names, *images))
    fixed = {"t": 1} if ratio_fixed else {}
    gens = [
        Poly.variable(big, name) - area.substitute(fixed, ring=big)
        for name, area in images.items()
    ]
    return eliminate(gens, list(coords.names), guard=guard)


def _principal_relation(basis: list[Poly], frame: str | None) -> Poly:
    relation = _normalize_relation(principal_generator(basis), frame)
    relation.homogeneous_degree()
    return relation


def trapezoid_polynomial(
    tri: CombinatorialTriangulation, guard: GuardConfig = GuardConfig()
) -> Poly:
    """The defining polynomial of the closed area variety of ``tri``.

    Eliminates all gauge variables from the graph ideal
    ``{U - W_frame} + {Bi - Wi}``; the result is homogeneous, primitive
    with integer coefficients, and normalized so the pure frame power
    has coefficient one.
    """
    basis = _eliminate_areas(tri, frame=True, ratio_fixed=False, guard=guard)
    return _principal_relation(basis, FRAME_VARIABLE)


def parallelogram_polynomial(
    tri: CombinatorialTriangulation, guard: GuardConfig = GuardConfig()
) -> Poly:
    """The relation among triangle areas when the trapezoid ratio is one.

    Same elimination as :func:`trapezoid_polynomial` but with ``t``
    specialized to one and no frame variable; normalized primitive with
    a positive canonically-first coefficient.
    """
    basis = _eliminate_areas(tri, frame=False, ratio_fixed=True, guard=guard)
    return _principal_relation(basis, None)


def independence_rank(
    tri: CombinatorialTriangulation, seed: int = 0, parallelogram: bool = False
) -> int:
    """Jacobian rank of the area map at a random rational gauge point.

    A full rank (equal to :func:`gauge_parameter_count`, or one less in
    parallelogram mode) certifies that the image has the dimension the
    principality argument expects.
    """
    gauge = gauged_areas(tri)
    polys = [gauge.frame, *gauge.areas.values()]
    names = list(gauge.ring.names)
    if parallelogram:
        polys = [p.substitute({"t": 1}) for p in polys[1:]]
        names.remove("t")
    rng = random.Random(seed)
    point = {
        n: Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 5, 7)))
        for n in gauge.ring.names
    }
    rows = [[p.partial(n).evaluate(point) for n in names] for p in polys]
    null = rational_nullspace(rows)
    return len(names) - len(null)


# ---------------------------------------------------------------------------
# closed form for the diagonal staircase families
# ---------------------------------------------------------------------------


def diagonal_relation_formula(n: int) -> Poly:
    """Trapezoid relation of the diagonal family, by explicit formula.

    With partial sums ``L_k = U + (A1 + B1) + ... + (Ak + Bk)`` and
    ``L_0 = U``, the relation is the product ``L_1 * ... * L_(n+1)``
    minus the sum over ``k`` of ``A(k+1)`` times the product of all
    ``L_j`` with ``j`` outside ``{k, k+1}``.  This route never touches
    the elimination machinery and anchors its output in the tests.
    """
    if n < 0:
        raise ValueError("family index must be nonnegative")
    names = (
        FRAME_VARIABLE,
        *(f"A{i}" for i in range(1, n + 2)),
        *(f"B{i}" for i in range(1, n + 2)),
    )
    ring = Ring(names)
    frame = Poly.variable(ring, FRAME_VARIABLE)
    partial_sums = [frame]
    for k in range(1, n + 2):
        partial_sums.append(
            partial_sums[-1]
            + Poly.variable(ring, f"A{k}")
            + Poly.variable(ring, f"B{k}")
        )
    relation = Poly.one(ring)
    for j in range(1, n + 2):
        relation = relation * partial_sums[j]
    for k in range(n + 1):
        term = Poly.variable(ring, f"A{k + 1}")
        for j in range(n + 2):
            if j not in (k, k + 1):
                term = term * partial_sums[j]
        relation = relation - term
    return _normalize_relation(relation, FRAME_VARIABLE)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def is_monic_in_every_variable(relation: Poly) -> bool:
    """Whether every variable's pure top power has coefficient ``+-1``.

    The top power is the total degree of the relation, so this is
    stronger than a unit leading coefficient: each variable on its own
    must reach the total degree, with unit coefficient when it does.
    """
    degree = relation.total_degree()
    if degree < 0:
        return False
    return all(
        abs(relation.coefficient_of_power(name, degree)) == 1
        for name in relation.ring.names
    )


def areas_algebraically_independent(
    tri: CombinatorialTriangulation, guard: GuardConfig = GuardConfig()
) -> bool:
    """Whether the triangle areas alone satisfy no polynomial relation.

    Runs the same elimination as :func:`trapezoid_polynomial` but with
    no frame variable and the trapezoid ratio left free.  A zero
    elimination ideal (empty basis) certifies that every relation on
    the closed area variety genuinely involves the frame variable.
    """
    return not _eliminate_areas(tri, frame=False, ratio_fixed=False, guard=guard)


def is_frame_monic(relation: Poly) -> bool:
    """True when the pure power ``U^degree`` has coefficient one."""
    return relation.coefficient_of_power(FRAME_VARIABLE, relation.total_degree()) == 1


def frame_power_profile(relation: Poly) -> dict[str, tuple[int, int]]:
    """Per-triangle restriction exponents ``(a, b)``.

    Setting every other triangle variable to zero must collapse the
    relation to ``U^a * (U + B)^b`` with ``a + b`` equal to the total
    degree; anything else raises :class:`RelationShapeError`.
    """
    frame = FRAME_VARIABLE
    degree = relation.total_degree()
    frame_poly = Poly.variable(relation.ring, frame)
    profile: dict[str, tuple[int, int]] = {}
    for name in relation.ring.names:
        if name == frame:
            continue
        zeroed = {n: 0 for n in relation.ring.names if n not in (frame, name)}
        restricted = relation.substitute(zeroed)
        b = restricted.degree_in(name)
        a = degree - b
        if a < 0:
            raise RelationShapeError(f"restriction to {name} exceeds the total degree")
        expected = (frame_poly ** a) * ((frame_poly + Poly.variable(relation.ring, name)) ** b)
        if restricted != expected:
            raise RelationShapeError(
                f"restriction to {name} is {canonical_str(restricted)}, "
                f"not of the shape {frame}^a * ({frame} + {name})^b"
            )
        profile[name] = (a, b)
    return profile


def doubling_substitution(relation: Poly) -> Poly:
    """Substitute ``U := -(sum of areas)`` and double every area.

    The result lives in the frame-free ring and, for relations coming
    from an actual triangulation, is divisible by the parallelogram
    relation of the same triangulation.
    """
    names = tuple(n for n in relation.ring.names if n != FRAME_VARIABLE)
    target = Ring(names)
    total = Poly.zero(target)
    for n in names:
        total = total + Poly.variable(target, n)
    images: dict[str, Poly] = {FRAME_VARIABLE: -total}
    for n in names:
        images[n] = Poly.variable(target, n) * 2
    return relation.substitute(images, ring=target)


def family_quotient(trapezoid_relation: Poly, parallelogram_relation: Poly) -> Poly:
    """Exact quotient of the doubling substitution by the parallelogram
    relation; raises :class:`FamilyIdentityError` if the division fails."""
    doubled = doubling_substitution(trapezoid_relation)
    if parallelogram_relation.ring != doubled.ring:
        parallelogram_relation = parallelogram_relation.substitute({}, ring=doubled.ring)
    quotient = exact_quotient(doubled, parallelogram_relation)
    if quotient is None:
        raise FamilyIdentityError(
            "doubling substitution is not divisible by the parallelogram relation"
        )
    return quotient


# ---------------------------------------------------------------------------
# sampling oracle
# ---------------------------------------------------------------------------


def monomials_of_degree(width: int, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, lexicographically
    descending: the sorted variable multisets come in lexicographic order."""
    out: list[Monomial] = []
    for combo in combinations_with_replacement(range(width), degree):
        exps = [0] * width
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def rational_nullspace(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of a matrix, exact over the rationals.

    One vector per free column of the RREF: one there, zero at the other
    free columns, minus that RREF column at the pivots.  It is solved mod
    primes from ``2^61 - 1`` down.  Full column rank mod p proves the
    kernel trivial (the rank mod p is at most the rank over Q).  Else the
    kernels of the primes with the highest rank and earliest pivots are
    lifted by CRT and rational reconstruction, and a lift is returned once
    every row times every vector is exactly zero.  That proves the nullity
    over Q, and the pivots too: a free column that is a pivot over Q would
    give a vector on it and earlier columns that no kernel over Q holds.
    """
    if not rows:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    width = len(rows[0])
    best: tuple[int, list[int]] | None = None
    residues: list[int] = []
    modulus = 1
    for p in _primes():
        solved = _kernel_mod(rows, width, p)
        if solved is None:
            continue
        pivots, kernel = solved
        if not kernel:
            return []
        flat = [x for vec in kernel for x in vec]
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, residues, modulus = key, flat, p
        elif key == best:
            step = pow(modulus, -1, p)
            residues = [a + modulus * ((b - a) * step % p) for a, b in zip(residues, flat)]
            modulus *= p
        else:
            continue
        entries = [_rational_reconstruction(a, modulus) for a in residues]
        if None in entries:
            continue
        basis = [entries[i : i + width] for i in range(0, len(entries), width)]
        if _annihilates(rows, basis):
            return basis
    raise ArithmeticError("no prime below 2^61 solved the nullspace")


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


def _primes() -> Iterator[int]:
    """The primes below ``2^61``, largest first."""
    for n in range((1 << 61) - 1, 2, -2):
        if _is_prime(n):
            yield n


def _kernel_mod(
    rows: list[list[Fraction]], width: int, p: int
) -> tuple[list[int], list[list[int]]] | None:
    """Pivot columns and free-column kernel basis of ``rows`` mod ``p``.

    None when ``p`` divides a denominator.  Rows are reduced one at a
    time into an echelon basis, which stops at full column rank.
    """
    inverses: dict[int, int] = {}
    pivots: list[int] = []
    basis: list[list[int]] = []
    for row in rows:
        vec = []
        for x in row:
            den = x.denominator
            inv = inverses.get(den)
            if inv is None:
                if den % p == 0:
                    return None
                inv = inverses[den] = pow(den, -1, p)
            vec.append(x.numerator * inv % p)
        # Entries stay below rank * p^2 until the one reduction mod p.
        for col, other in zip(pivots, basis):
            factor = vec[col] % p
            if factor:
                vec = [x - factor * y for x, y in zip(vec, other)]
        vec = [x % p for x in vec]
        lead = next((c for c, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        inv = pow(vec[lead], -1, p)
        at = bisect(pivots, lead)
        pivots.insert(at, lead)
        basis.insert(at, [x * inv % p for x in vec])
        if len(pivots) == width:
            return pivots, []
    for k in range(len(pivots) - 1, 0, -1):
        col, other = pivots[k], basis[k]
        for i in range(k):
            factor = basis[i][col]
            if factor:
                basis[i] = [(x - factor * y) % p for x, y in zip(basis[i], other)]
    kernel = []
    for free in sorted(set(range(width)).difference(pivots)):
        vec = [0] * width
        vec[free] = 1
        for col, other in zip(pivots, basis):
            vec[col] = -other[free] % p
        kernel.append(vec)
    return pivots, kernel


def _rational_reconstruction(a: int, m: int) -> Fraction | None:
    """The fraction ``n/d`` with ``n = a*d (mod m)`` and ``|n|, d`` at most
    ``sqrt(m/2)``, or None (Wang, Guy and Davenport 1982)."""
    bound = isqrt(m // 2)
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def _annihilates(rows: list[list[Fraction]], basis: list[list[Fraction]]) -> bool:
    """Whether every row times every basis vector is exactly zero."""
    scaled = []
    for vec in basis:
        den = lcm(*(x.denominator for x in vec))
        scaled.append([x.numerator * (den // x.denominator) for x in vec])
    for row in rows:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        if any(sum(map(mul, ints, vec)) for vec in scaled):
            return False
    return True


def drawing_values(drawing: Drawing) -> dict[str, Fraction]:
    """The value each relation variable takes on a drawing: the doubled area
    of its :func:`_area_shapes` triple, in ``Fraction`` arithmetic."""
    shapes = _area_shapes(drawing.triangulation)
    return {name: doubled_area(*map(drawing.point, abc)) for name, abc in shapes.items()}


def _area_shapes(tri: CombinatorialTriangulation) -> dict[str, tuple[str, ...]]:
    """The vertex triple whose doubled area each relation variable takes:
    the frame ``(p, s, q)`` for ``U``, then each triangle's own, which
    wins over the frame for a triangle named ``U``; the first triangle
    of a repeated name wins, as in ``Drawing.triangle_area``."""
    shapes: dict[str, tuple[str, ...]] = {}
    for t in tri.triangles:
        shapes.setdefault(t.name, t.vertices)
    return {FRAME_VARIABLE: ("p", "s", "q"), **shapes}


def _doubled_areas(
    shapes: Iterable[tuple[str, ...]], points: dict[str, tuple[int, int]]
) -> list[int]:
    """The doubled area of each vertex triple, in integer points."""
    return [
        (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        for (ax, ay), (bx, by), (cx, cy) in (map(points.__getitem__, abc) for abc in shapes)
    ]


def interpolated_relation(
    tri: CombinatorialTriangulation,
    seed: int = 0,
    parallelogram: bool = False,
) -> Poly:
    """Lowest-degree homogeneous relation among sampled area vectors.

    Sweeps the degree upward to ``ORACLE_MAX_DEGREE``; at each degree it
    samples ``ORACLE_SAMPLES_PER_MONOMIAL`` random drawings per
    candidate monomial, solves the exact linear system for
    vanishing coefficient vectors, and stops at the first degree where
    the nullspace is nontrivial.  That nullspace must be a line, and
    the resulting polynomial must vanish on a fresh verification batch;
    otherwise :class:`OracleError` is raised.  A degree with more than
    ``ORACLE_MAX_MONOMIALS`` candidate monomials raises
    :class:`ResourceGuardError` before any of its drawings is sampled.
    The normalization matches the elimination route, so results are
    directly comparable.

    The integer points of :func:`random_integer_drawing` go through the
    :func:`_area_shapes` table, so a row is the monomials at ``D^2`` times
    the drawing's values, ``D^(2d)`` times the rational row: the same
    nullspace, and a verification row is annihilated exactly on a zero.
    """
    tri.require_valid()
    ring = relation_ring(tri, with_frame=not parallelogram)
    shapes = list(map(_area_shapes(tri).__getitem__, ring.names))
    rng = random.Random(seed)
    for degree in range(1, ORACLE_MAX_DEGREE + 1):
        count = comb(len(ring) + degree - 1, degree)
        if count > ORACLE_MAX_MONOMIALS:
            raise ResourceGuardError(
                f"sampling oracle needs {count} monomials at degree {degree}, "
                f"more than {ORACLE_MAX_MONOMIALS}"
            )
        monos = monomials_of_degree(len(ring), degree)
        supports = [[(i, e) for i, e in enumerate(mono) if e] for mono in monos]

        def sample_rows(size: int) -> list[list[int]]:
            rows = []
            for _ in range(size):
                values = _doubled_areas(shapes, random_integer_drawing(tri, rng, parallelogram)[1])
                powers = [[v**e for e in range(degree + 1)] for v in values]
                rows.append([prod([powers[i][e] for i, e in s]) for s in supports])
            return rows

        null = rational_nullspace(sample_rows(ORACLE_SAMPLES_PER_MONOMIAL * count))
        if not null:
            continue
        if len(null) > 1:
            raise OracleError(
                f"nullspace at degree {degree} has dimension {len(null)}; "
                "expected a single relation at the first nontrivial degree"
            )
        if not _annihilates(sample_rows(24), null):
            raise OracleError(f"degree-{degree} candidate fails on a verification drawing")
        candidate = Poly(ring, dict(zip(monos, null[0])))
        return _normalize_relation(candidate, None if parallelogram else FRAME_VARIABLE)
    raise OracleError(f"no homogeneous relation found up to degree {ORACLE_MAX_DEGREE}")


def verify_vanishing(
    relation: Poly,
    tri: CombinatorialTriangulation,
    seed: int = 0,
    count: int = 100,
    parallelogram: bool = False,
) -> int:
    """Evaluate the relation on random drawings; returns the number checked.

    Each drawing is a :func:`random_integer_drawing`, read through the
    :func:`_area_shapes` table as ``Fraction(area, D^2)``: the values of
    :func:`drawing_values` on the matching :func:`random_drawing`.  Raises
    :class:`InvalidTriangulationError` for an invalid ``tri`` and
    :class:`RelationShapeError` with the offending drawing when a nonzero
    value shows up.
    """
    tri.require_valid()
    shapes = _area_shapes(tri)
    rng = random.Random(seed)
    for index in range(count):
        scale, points = random_integer_drawing(tri, rng, parallelogram)
        areas = _doubled_areas(shapes.values(), points)
        values = {name: Fraction(a, scale * scale) for name, a in zip(shapes, areas)}
        result = relation.evaluate(values)
        if result != 0:
            raise RelationShapeError(
                f"relation evaluates to {result} on drawing {index} (seed {seed})"
            )
    return count


def verify_parallelogram_frame_vanishing(
    relation: Poly,
    tri: CombinatorialTriangulation,
    seed: int = 0,
    count: int = 100,
) -> int:
    """:func:`verify_vanishing` on parallelogram drawings, where the frame
    value is minus half the total area.

    On a valid triangulation the doubled triangle areas sum to the doubled
    area of the quadrilateral; with ``t = 1`` it is twice that of the
    triangle ``(p, q, s)``, so ``doubled_area(p, s, q)`` is minus half the
    sum, the substitution behind the doubling identity.
    """
    return verify_vanishing(relation, tri, seed, count, parallelogram=True)
