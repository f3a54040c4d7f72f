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

Only :func:`gauged_areas` writes the pinned gauge out, with the ratio
``t`` free or pinned to one (``r = (1, lam)``, no ``t`` in its ring).
That choice and whether the frame ``U`` is kept give the modes:
:func:`trapezoid_polynomial` (frame, free ratio),
:func:`parallelogram_polynomial` (no frame, ``t = 1``) and
:func:`areas_algebraically_independent` (no frame, free ratio: the ideal
must come out zero).  :func:`_mode_images` reads off that gauge the
image of each relation variable in one mode.  Two independent routes
read that table:

- one graph-ideal builder eliminates the gauge variables from
  ``{U - W_frame} + {Bi - Wi}`` with a block-order Groebner basis.
  Triangle names that are not variable names of relation text, or that
  clash with ``U`` or the gauge coordinates, raise
  :class:`NameCollisionError`.  For ``z_T`` and ``p_T`` the integer
  Jacobian of the table at a seeded point (:func:`_jacobian`) has rank
  one less than its row count; that makes the elimination ideal a prime
  of height at most one, so the elimination stops at the first basis
  element proved irreducible.  :func:`_rank` takes that rank and the one
  :func:`independence_rank` reports, by :func:`rational_nullspace`;
- :func:`interpolated_relation` samples random drawings and solves an
  exact linear system for the lowest-degree homogeneous relation among
  the observed area vectors, never touching the Groebner machinery.
  :func:`rational_nullspace` solves it from the integer sample rows
  modulo 61-bit primes and lifts the kernel to Q by CRT and rational
  reconstruction, returning it only once it annihilates every row
  exactly.  The candidate must then vanish on the table exactly, which
  proves it is the relation.

The two routes must deliver literally the same normalized polynomial;
the test suite insists on it.

Every value a relation variable takes on a drawing comes from
:func:`area_values`, on ``int`` or ``Fraction`` points.  The oracle rows
and :func:`verify_vanishing` read it on the integer points of
:func:`random_integer_drawing`; the latter builds the relation's
``poly._IntegerForm`` once (coefficients over their lcm, each term
weighted by a power of ``D^2``), tests its integer numerator for zero on
each drawing, and builds a ``Fraction`` only for a failure;
:func:`verify_parallelogram_frame_vanishing` is its parallelogram mode,
where the frame value ``U`` is minus half the total area.

Normalization: relations are primitive integer polynomials with a
positive coefficient on their canonically first term
(``Poly.content_and_primitive``).  ``U`` is the first variable of every
relation ring, so for a trapezoid relation of degree ``d`` that term is
``U^d``, with coefficient one (it is monic in the frame variable).

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
from math import comb, gcd, isqrt, prod
from operator import mul
from typing import Mapping

# random_drawing stays imported: perfbench/spans.py wraps variety.random_drawing by name.
from .areamap import (
    Point, doubled_area, gauged_areas, random_drawing, random_integer_drawing
)
from .exact import clear_denominators, primes
from .groebner import GuardConfig, ResourceGuardError, eliminate, principal_generator
from .poly import (
    Monomial,
    Poly,
    Ring,
    _NAME_RE,
    _IntegerForm,
    _trusted,
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
    "area_values",
    "verify_parallelogram_frame_vanishing",
    "rational_nullspace",
    "monomials_of_degree",
]

FRAME_VARIABLE = "U"
# The sampling oracle's degree sweep, the rows it solves beyond the
# monomial count at each degree (spare rows make a rank below that of the
# drawn variety unlikely; the exact check over Q proves any kernel found),
# and the most monomials (nullspace columns) it solves for at one degree.
ORACLE_MAX_DEGREE = 8
ORACLE_EXTRA_ROWS = 8
ORACLE_MAX_MONOMIALS = 100
# The most terms the doubling substitution may reach.  The bound is
# 77 520 for the closed-form relation of diagonal-6 and 490 314 for that
# of diagonal-7, whose substitution takes about a minute.
DOUBLING_MAX_MONOMIALS = 200_000


class NameCollisionError(ValueError):
    """Triangle names are not variable names, or clash with the frame
    variable or the gauge coordinates."""


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
    """Every triangle name must read back as one variable of relation text
    and be none of ``reserved``."""
    bad = sorted(repr(n) for n in set(tri.triangle_names) if not _NAME_RE.fullmatch(n))
    if bad:
        raise NameCollisionError(
            f"triangle names {', '.join(bad)} are not variable names (a letter or "
            "underscore, then letters, digits or underscores); rename the triangles"
        )
    clash = sorted(set(tri.triangle_names).intersection(reserved))
    if clash:
        raise NameCollisionError(
            f"triangle names {', '.join(clash)} collide with the frame variable "
            "or the gauge coordinates; rename the triangles"
        )


def relation_ring(tri: CombinatorialTriangulation, with_frame: bool = True) -> Ring:
    """The ring of one variable per triangle, frame variable first; see
    :func:`_require_free_names` for the names it refuses."""
    _require_free_names(tri, [FRAME_VARIABLE] if with_frame else [])
    names = tri.triangle_names
    return Ring((FRAME_VARIABLE, *names) if with_frame else names)


def gauge_parameter_count(tri: CombinatorialTriangulation) -> int:
    """Free parameters of the pinned gauge: the :func:`gauged_areas` ring's
    ``t``, ``lam``, and one coordinate pair per interior vertex."""
    tri.require_valid()
    return len(gauged_areas(tri).ring)


def _mode_images(
    tri: CombinatorialTriangulation, frame: bool, ratio_fixed: bool
) -> tuple[Ring, dict[str, Poly]]:
    """The :func:`gauged_areas` coordinates of one mode and the image of
    each relation variable in them: the frame ``U`` (only with ``frame``,
    and then only for names :func:`relation_ring` accepts), then each triangle."""
    if frame:
        _require_free_names(tri, [FRAME_VARIABLE])
    gauge = gauged_areas(tri, ratio_fixed)
    images = {FRAME_VARIABLE: gauge.frame} if frame else {}
    images.update(gauge.areas)
    return gauge.ring, images


def _eliminate_areas(
    tri: CombinatorialTriangulation,
    frame: bool,
    ratio_fixed: bool,
    guard: GuardConfig,
) -> list[Poly]:
    """Eliminate the gauge from the graph ideal of the area map of ``tri``.

    The generators are ``name - image`` over the :func:`_mode_images`
    table, in its order.  Returns the reduced basis over the relation ring.
    """
    tri.require_valid()
    # Exact: each generator has its own relation variable, so none reduces to zero.
    if len(tri.triangles) + int(frame) > guard.max_basis:
        raise ResourceGuardError(f"basis size exceeded {guard.max_basis} elements")
    coords, images = _mode_images(tri, frame, ratio_fixed)
    _require_free_names(tri, list(coords.names))
    big = Ring((*coords.names, *images))
    # ``name - image`` on exponent tuples, with zero exponents on the relation variables.
    pad = (0,) * len(images)
    gens = []
    for name, image in images.items():
        terms = {big.var_monomial(name): Fraction(1)}
        terms.update((mono + pad, -c) for mono, c in image.terms.items())
        gens.append(_trusted(big, terms))
    # z_T and p_T only.  The elimination ideal is the kernel of a map into
    # a domain, so prime; a Jacobian of rank one less than its row count
    # bounds its height by one.
    principal = frame != ratio_fixed and _rank(_jacobian(coords, images, 0)[1]) == len(images) - 1
    return eliminate(gens, list(coords.names), guard=guard, principal=principal)


def _principal_relation(basis: list[Poly]) -> Poly:
    relation = principal_generator(basis).content_and_primitive()[1]
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
    return _principal_relation(basis)


def parallelogram_polynomial(
    tri: CombinatorialTriangulation, guard: GuardConfig = GuardConfig()
) -> Poly:
    """The relation among triangle areas when the trapezoid ratio is one.

    Same elimination as :func:`trapezoid_polynomial` but with ``t``
    specialized to one and no frame variable; normalized primitive with
    a positive canonically-first coefficient.
    """
    basis = _eliminate_areas(tri, frame=False, ratio_fixed=True, guard=guard)
    return _principal_relation(basis)


def independence_rank(
    tri: CombinatorialTriangulation, seed: int = 0, parallelogram: bool = False
) -> int:
    """Jacobian rank of a :func:`_mode_images` table at a seeded integer
    gauge point, by the :func:`_rank` of the elimination's height-one step.

    A full rank (equal to :func:`gauge_parameter_count`, or one less in
    parallelogram mode) certifies that the image has the dimension the
    principality argument expects.
    """
    tri.require_valid()
    return _rank(_jacobian(*_mode_images(tri, not parallelogram, parallelogram), seed)[1])


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, read off :func:`rational_nullspace`."""
    return len(rows[0]) - len(rational_nullspace(rows))


def _jacobian(
    coords: Ring, images: dict[str, Poly], seed: int
) -> tuple[dict[str, int], list[list[int]]]:
    """A seeded point of 40-bit integers over ``coords`` and the Jacobian
    there of a :func:`_mode_images` table: one integer row per image, one
    column per coordinate."""
    rng = random.Random(seed)
    point = {n: rng.randrange(-(1 << 40), 1 << 40) for n in coords.names}
    values = list(point.values())
    rows = []
    for image in images.values():
        row = [0] * len(values)
        for mono, c in image.terms.items():
            for i, e in enumerate(mono):
                if e:
                    lowered = (*mono[:i], e - 1, *mono[i + 1 :])
                    row[i] += int(c) * e * prod(map(pow, values, lowered))
        rows.append(row)
    return point, rows


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
    return relation.content_and_primitive()[1]


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
    degree; anything else raises :class:`RelationShapeError`.  The
    restriction to ``B`` is the set of terms supported on ``{U, B}``, and
    it is compared term by term with ``comb(b, k) * U^(a + b - k) * B^k``.
    """
    frame = FRAME_VARIABLE
    ring = relation.ring
    u = ring.index(frame)
    degree = relation.total_degree()
    shared: dict[Monomial, Fraction] = {}  # terms free of every triangle variable
    own: dict[int, dict[Monomial, Fraction]] = {i: {} for i in range(len(ring)) if i != u}
    for mono, coeff in relation.terms.items():
        support = [i for i, e in enumerate(mono) if e and i != u]
        if not support:
            shared[mono] = coeff
        elif len(support) == 1:
            own[support[0]][mono] = coeff
    profile: dict[str, tuple[int, int]] = {}
    for i, terms in own.items():
        name = ring.names[i]
        restricted = {**shared, **terms}
        b = max((mono[i] for mono in terms), default=0)
        expected = {}
        for k in range(b + 1):
            shape = [0] * len(ring)
            shape[u], shape[i] = degree - k, k
            expected[tuple(shape)] = comb(b, k)
        if restricted != expected:
            raise RelationShapeError(
                f"restriction to {name} is {canonical_str(Poly(ring, restricted))}, "
                f"not of the shape {frame}^a * ({frame} + {name})^b"
            )
        profile[name] = (degree - b, b)
    return profile


def doubling_substitution(relation: Poly) -> Poly:
    """Substitute ``U := -(sum of areas)`` and double every area.

    The result lives in the frame-free ring and, for relations coming
    from an actual triangulation, is divisible by the parallelogram
    relation of the same triangulation.
    """
    names = tuple(n for n in relation.ring.names if n != FRAME_VARIABLE)
    target = Ring(names)
    images = {FRAME_VARIABLE: Poly(target, {target.var_monomial(n): -1 for n in names})}
    for n in names:
        images[n] = Poly.variable(target, n) * 2
    return relation.substitute(images, ring=target)


def family_quotient(trapezoid_relation: Poly, parallelogram_relation: Poly) -> Poly:
    """Exact quotient of the doubling substitution by the parallelogram
    relation; raises :class:`FamilyIdentityError` if the division fails
    or either relation is zero.

    Each degree ``d`` of the trapezoid relation gives at most
    ``comb(m + d - 1, d)`` terms in the ``m`` area variables; when these
    bounds sum past ``DOUBLING_MAX_MONOMIALS`` it raises
    :class:`ResourceGuardError` before expanding anything.
    """
    pair = (("trapezoid", trapezoid_relation), ("parallelogram", parallelogram_relation))
    for kind, relation in pair:
        if relation.is_zero():
            raise FamilyIdentityError(f"{kind} relation is zero; no doubling quotient exists")
    m = sum(n != FRAME_VARIABLE for n in trapezoid_relation.ring.names)
    bound = sum(comb(m + d - 1, d) for d in set(map(sum, trapezoid_relation.terms)))
    if bound > DOUBLING_MAX_MONOMIALS:
        raise ResourceGuardError(
            f"the doubling substitution may reach {bound} terms, "
            f"more than {DOUBLING_MAX_MONOMIALS}"
        )
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


def rational_nullspace(rows: list[list[int]]) -> list[list[Fraction]]:
    """Basis of the right nullspace of an integer matrix, exact over the
    rationals.

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
    for p in primes():
        pivots, kernel = _kernel_mod(rows, width, p)
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


def _kernel_mod(
    rows: list[list[int]], width: int, p: int
) -> tuple[list[int], list[list[int]]]:
    """Pivot columns and free-column kernel basis of ``rows`` mod ``p``.

    Rows are reduced one at a time into an echelon basis, which stops at
    full column rank.
    """
    pivots: list[int] = []
    basis: list[list[int]] = []
    for row in rows:
        vec = [x % p for x in row]
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


def _annihilates(rows: list[list[int]], basis: list[list[Fraction]]) -> bool:
    """Whether every row times every basis vector is exactly zero."""
    scaled = [clear_denominators(vec)[1] for vec in basis]
    return not any(sum(map(mul, row, vec)) for row in rows for vec in scaled)


def area_values(
    tri: CombinatorialTriangulation, points: Mapping[str, Point], frame: bool = True
) -> dict[str, Fraction]:
    """The value each relation variable takes at ``points``, whose
    coordinates may be ``int`` (giving ``int`` values) or ``Fraction``.

    With ``frame``, ``U`` comes first and takes the doubled area of the
    frame ``(p, s, q)``; then each triangle takes its own doubled area,
    which wins over the frame for a triangle named ``U``.  The first
    triangle of a repeated name wins, as in ``Drawing.triangle_area``.
    """
    shapes: dict[str, tuple[str, ...]] = {}
    for t in tri.triangles:
        shapes.setdefault(t.name, t.vertices)
    if frame:
        shapes = {FRAME_VARIABLE: ("p", "s", "q"), **shapes}
    return {name: doubled_area(*map(points.__getitem__, abc)) for name, abc in shapes.items()}


def _monomial_rows(vectors: list[list[int]], monos: list[Monomial]) -> list[list[int]]:
    """Every monomial of ``monos``, all of one degree, at each vector."""
    degree = sum(monos[0])
    supports = [[(i, e) for i, e in enumerate(mono) if e] for mono in monos]
    rows = []
    for values in vectors:
        powers = [[v**e for e in range(degree + 1)] for v in values]
        rows.append([prod([powers[i][e] for i, e in s]) for s in supports])
    return rows


def interpolated_relation(
    tri: CombinatorialTriangulation,
    seed: int = 0,
    parallelogram: bool = False,
) -> Poly:
    """Lowest-degree homogeneous relation among sampled area vectors.

    Sweeps the degree upward to ``ORACLE_MAX_DEGREE``.  At a degree with
    ``count`` candidate monomials it solves the exact linear system of
    ``count + ORACLE_EXTRA_ROWS`` sample rows for vanishing coefficient
    vectors, and stops at the first degree where the nullspace is
    nontrivial.  The random drawings behind the rows are shared across
    the sweep: each degree extends one list of area vectors to the rows
    it needs.  :func:`rational_nullspace` proves the nullspace of the
    rows; it must be a line, and the candidate spanning it must vanish on
    the area map: substituted with the :func:`_mode_images` table, it must
    be the zero polynomial.  Otherwise :class:`OracleError` is raised.  A
    degree with more than ``ORACLE_MAX_MONOMIALS`` candidate monomials
    raises :class:`ResourceGuardError` before any of its drawings is
    sampled.  The normalization matches the elimination route.

    That proves the answer.  Every drawing's area vector lies on the image
    of the area map, so every relation of degree ``d`` is in the nullspace
    at ``d``: none exists below ``d``, and the candidate spans those of
    degree ``d``.  The rows read :func:`area_values` on the integer points
    of :func:`random_integer_drawing`, so a row is ``D^(2d)`` times the
    rational row: the same nullspace.
    """
    tri.require_valid()
    ring = relation_ring(tri, with_frame=not parallelogram)
    rng = random.Random(seed)
    vectors: list[list[int]] = []
    for degree in range(1, ORACLE_MAX_DEGREE + 1):
        count = comb(len(ring) + degree - 1, degree)
        if count > ORACLE_MAX_MONOMIALS:
            raise ResourceGuardError(
                f"sampling oracle needs {count} monomials at degree {degree}, "
                f"more than {ORACLE_MAX_MONOMIALS}"
            )
        for _ in range(count + ORACLE_EXTRA_ROWS - len(vectors)):
            points = random_integer_drawing(tri, rng, parallelogram)[1]
            vectors.append(list(area_values(tri, points, frame=not parallelogram).values()))
        monos = monomials_of_degree(len(ring), degree)
        null = rational_nullspace(_monomial_rows(vectors, monos))
        if not null:
            continue
        if len(null) > 1:
            raise OracleError(
                f"nullspace at degree {degree} has dimension {len(null)}; "
                "expected a single relation at the first nontrivial degree"
            )
        candidate = Poly(ring, dict(zip(monos, null[0])))
        coords, images = _mode_images(tri, not parallelogram, parallelogram)
        if candidate.substitute(images, ring=coords):
            raise OracleError(f"degree-{degree} candidate does not vanish on the area map")
        return candidate.content_and_primitive()[1]
    raise OracleError(f"no homogeneous relation found up to degree {ORACLE_MAX_DEGREE}")


def verify_vanishing(
    relation: Poly,
    tri: CombinatorialTriangulation,
    seed: int = 0,
    count: int = 100,
    parallelogram: bool = False,
) -> int:
    """Evaluate the relation on random drawings; returns the number checked.

    Each drawing is a :func:`random_integer_drawing`, whose
    :func:`area_values` over ``D^2`` are those of the matching
    :func:`random_drawing`; the relation's integer numerator at those
    areas must be zero, and only a failure builds its ``Fraction``.  Raises
    :class:`InvalidTriangulationError` for an invalid ``tri`` and
    :class:`RelationShapeError` with the offending drawing when a nonzero
    value shows up, or for the zero relation, which vanishes everywhere.
    """
    tri.require_valid()
    if relation.is_zero():
        raise RelationShapeError("relation is zero, so vanishing proves nothing")
    form = _IntegerForm(relation)
    rng = random.Random(seed)
    for index in range(count):
        scale, points = random_integer_drawing(tri, rng, parallelogram)
        weight = scale * scale
        numerator = form.numerator(form.values(area_values(tri, points)), weight)
        if numerator:
            raise RelationShapeError(
                f"relation evaluates to {form.value(numerator, weight)} "
                f"on drawing {index} (seed {seed})"
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
