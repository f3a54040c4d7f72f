"""Executable acceptance battery: fourteen end-to-end checks.

Each criterion exercises one headline promise of the package, from the
documented one-step relation string through elimination/interpolation
agreement to the 2-adic equidissection reports.  The battery prints one
pass/fail line per criterion and is wired into both the test suite and
the ``selftest`` subcommand of the command line tool.

The relation criteria run over a fixed corpus of five triangulations
(three diagonal staircases, the center fan, and a barycentrically
refined staircase); the coloring criteria run over the five square
dissections of :mod:`areapoly.corpus`.  Expensive eliminations are
memoized inside a battery instance so the criteria share them; a fresh
instance recomputes everything.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TextIO

from .areamap import doubled_area, gauged_areas, random_drawing
from .coloring import drawing_certificate, equidissection_report, rainbow_certificate
from .corpus import (
    PRINTED_NAME_MAP,
    PRINTED_RELATION,
    corpus_dissection,
    corpus_names,
    printed_order_step,
    relation_corpus,
)
from .dissection import poof
from .exact import val2
from .groebner import GuardConfig
from .poly import Poly, Ring, canonical_str, parse_polynomial
from .triangulation import CORNERS, CombinatorialTriangulation, diagonal_family
from .variety import (
    FRAME_VARIABLE,
    areas_algebraically_independent,
    diagonal_relation_formula,
    family_quotient,
    frame_power_profile,
    interpolated_relation,
    is_frame_monic,
    is_monic_in_every_variable,
    parallelogram_polynomial,
    trapezoid_polynomial,
    verify_parallelogram_frame_vanishing,
    verify_vanishing,
)

__all__ = ["CriterionResult", "AcceptanceBattery", "TIME_BUDGET"]

TIME_BUDGET = 300.0

_EXPECTED_STEP_PROFILE = {
    "B1": (0, 2),
    "A1": (1, 1),
    "A2": (2, 0),
    "B2": (1, 1),
}


def _require(holds: bool, problem: str) -> None:
    """Fail the running criterion with ``problem``.

    An explicit raise rather than ``assert``, so ``python -O`` cannot
    turn a failing criterion into a pass.
    """
    if not holds:
        raise AssertionError(problem)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    seconds: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        text = f"criterion {self.number:2d}: {status} [{self.seconds:7.2f}s] {self.title}"
        if not self.passed and self.detail:
            text += f" -- {self.detail}"
        return text


class AcceptanceBattery:
    """Runs the fourteen acceptance criteria with shared memoization."""

    def __init__(self, guard: GuardConfig = GuardConfig()) -> None:
        self.guard = guard
        self._corpus = relation_corpus()
        self._trapezoid: dict[str, Poly] = {}
        self._parallelogram: dict[str, Poly] = {}

    # -- shared data --------------------------------------------------

    @property
    def corpus(self) -> dict[str, CombinatorialTriangulation]:
        return self._corpus

    def trapezoid(self, key: str) -> Poly:
        if key not in self._trapezoid:
            self._trapezoid[key] = trapezoid_polynomial(self._corpus[key], guard=self.guard)
        return self._trapezoid[key]

    def parallelogram(self, key: str) -> Poly:
        if key not in self._parallelogram:
            self._parallelogram[key] = parallelogram_polynomial(
                self._corpus[key], guard=self.guard
            )
        return self._parallelogram[key]

    # -- criteria -----------------------------------------------------

    def criterion_1(self) -> str:
        """The one-step relation matches the documented string."""
        started = time.perf_counter()
        printed_ring = Ring((FRAME_VARIABLE, *sorted(PRINTED_NAME_MAP)))
        expected = parse_polynomial(PRINTED_RELATION, printed_ring)

        direct = trapezoid_polynomial(printed_order_step(), guard=self.guard)
        _require(
            direct == expected, f"direct printed-order elimination gives {canonical_str(direct)}"
        )

        structural = self.trapezoid("diagonal-1")
        images = {FRAME_VARIABLE: Poly.variable(printed_ring, FRAME_VARIABLE)}
        for printed, structural_name in PRINTED_NAME_MAP.items():
            images[structural_name] = Poly.variable(printed_ring, printed)
        renamed = structural.substitute(images, ring=printed_ring)
        _require(renamed == expected, f"renamed staircase relation gives {canonical_str(renamed)}")
        elapsed = time.perf_counter() - started
        _require(elapsed < 10.0, f"elimination took {elapsed:.2f}s, budget is 10s")
        return f"two routes reproduce the documented string in {elapsed:.2f}s"

    def criterion_2(self) -> str:
        """Staircase relations match the closed formula with degree n+1."""
        for n in range(5):
            key = f"diagonal-{n}"
            started = time.perf_counter()
            if key in self.corpus:
                relation = self.trapezoid(key)
            else:
                relation = trapezoid_polynomial(diagonal_family(n), guard=self.guard)
            elapsed = time.perf_counter() - started
            formula = diagonal_relation_formula(n)
            _require(relation == formula, f"{key} disagrees with the closed formula")
            _require(
                relation.total_degree() == n + 1,
                f"{key} has degree {relation.total_degree()}, expected {n + 1}",
            )
            if n >= 2:
                _require(
                    elapsed < 120.0, f"{n}-step elimination took {elapsed:.2f}s, budget is 120s"
                )
        return "closed formula and degrees confirmed for zero to four steps"

    def criterion_3(self) -> str:
        """Every corpus trapezoid relation is monic in the frame variable."""
        for key in self.corpus:
            relation = self.trapezoid(key)
            _require(is_frame_monic(relation), f"{key} is not monic in {FRAME_VARIABLE}")
        return f"frame coefficient is one for all {len(self.corpus)} corpus relations"

    def criterion_4(self) -> str:
        """Every parallelogram relation is monic in every variable."""
        for key in self.corpus:
            relation = self.parallelogram(key)
            _require(
                is_monic_in_every_variable(relation),
                f"{key} parallelogram relation is not monic in some variable: "
                f"{canonical_str(relation)}",
            )
        return "top pure powers carry unit coefficients in all corpus relations"

    def criterion_5(self) -> str:
        """Single-triangle restrictions collapse to frame^a * (frame+B)^b."""
        for key in self.corpus:
            profile = frame_power_profile(self.trapezoid(key))
            if key == "diagonal-1":
                _require(
                    profile == _EXPECTED_STEP_PROFILE,
                    f"one-step profile {profile} differs from {_EXPECTED_STEP_PROFILE}",
                )
        return "restriction shape holds corpus-wide; one-step exponents frozen"

    def criterion_6(self) -> str:
        """The doubling substitution is divisible by the parallelogram relation."""
        quotients = {}
        for key in self.corpus:
            quotients[key] = family_quotient(self.trapezoid(key), self.parallelogram(key))
        unit = quotients["diagonal-0"]
        _require(
            unit.total_degree() == 0 and abs(unit.constant_term()) == 1,
            f"zero-step quotient {canonical_str(unit)} is not a unit",
        )
        step = quotients["diagonal-1"]
        total = Poly.zero(step.ring)
        for name in step.ring.names:
            total = total + Poly.variable(step.ring, name)
        _require(
            step in (total, -total),
            f"one-step quotient {canonical_str(step)} is not the area sum up to sign",
        )
        return "divisibility holds corpus-wide; small quotients have the promised shape"

    def criterion_7(self) -> str:
        """Relations vanish on random drawings, including half-frame mode."""
        checked = 0
        for index, key in enumerate(self.corpus):
            tri = self.corpus[key]
            z = self.trapezoid(key)
            p = self.parallelogram(key)
            checked += verify_vanishing(z, tri, seed=700 + index, count=100)
            checked += verify_vanishing(
                p, tri, seed=730 + index, count=100, parallelogram=True
            )
            checked += verify_parallelogram_frame_vanishing(
                z, tri, seed=760 + index, count=100
            )
        return f"{checked} exact evaluations, all zero"

    def criterion_8(self) -> str:
        """Dropping the frame leaves no relation among the areas."""
        for key in self.corpus:
            _require(
                areas_algebraically_independent(self.corpus[key], guard=self.guard),
                f"{key} areas satisfy a frame-free relation",
            )
        return "frame-free elimination ideal is zero for all corpus triangulations"

    def criterion_9(self) -> str:
        """Gauge identities: frame areas complement the triangle total."""
        for key in self.corpus:
            gauge = gauged_areas(self.corpus[key])
            total = gauge.total()
            _require(
                gauge.frame + gauge.opposite_frame == -total,
                f"{key}: the two frame triangles do not complement the total",
            )
            lam = Poly.variable(gauge.ring, "lam")
            ratio = Poly.variable(gauge.ring, "t")
            _require(
                total == lam * (Poly.one(gauge.ring) + ratio),
                f"{key}: total area is not lam * (1 + t)",
            )
        return "both identities hold as exact polynomial equations corpus-wide"

    def criterion_10(self) -> str:
        """Random trapezoid drawings always contain rainbow triangles."""
        checked = 0
        for index, key in enumerate(self.corpus):
            tri = self.corpus[key]
            rng = random.Random(1000 + index)
            for _ in range(100):
                drawing = random_drawing(tri, rng, positive_ratio=True)
                certificate = drawing_certificate(drawing)
                _require(
                    certificate.boundary in ("CAAB", "CABB"),
                    f"{key}: boundary coloring {certificate.boundary}",
                )
                _require(
                    len(certificate.rainbow) % 2 == 1,
                    f"{key}: even rainbow count {len(certificate.rainbow)}",
                )
                checked += 1
        return f"{checked} drawings certified: boundary coloring, parity, valuations"

    def criterion_11(self) -> str:
        """Equidissection reports obey the 2-adic counting bound."""
        for name, count in (("diag2", 2), ("fan4", 4), ("eighths", 8)):
            report = equidissection_report(corpus_dissection(name))
            _require(report.count == count, f"{name} has {report.count} triangles")
            _require(report.equal_areas, f"{name} should be equal-area")
            _require(
                report.required_valuation == 1,
                f"{name}: unit square needs val2(count) >= 1, "
                f"reported {report.required_valuation}",
            )
            _require(report.admissible is True, f"{name} reported inadmissible")
            _require(
                count % 2 == 0 and val2(Fraction(1, count)) <= -1,
                f"{name}: count {count} fails the even/valuation equivalence",
            )
        for name in corpus_names():
            dissection = corpus_dissection(name)
            certificate = rainbow_certificate(dissection)
            small = [
                t.name
                for t in dissection.triangles
                if val2(doubled_area(*dissection.triangle_points(t)) / 2) <= -1
            ]
            _require(small, f"{name}: no triangle with val2(area) <= -1")
            _require(
                set(certificate.rainbow) <= set(small),
                f"{name}: rainbow triangles {certificate.rainbow} not all 2-adically small",
            )
        return "counting bound and small-area triangles confirmed on all squares"

    def criterion_12(self) -> str:
        """The sampling oracle reproduces the eliminated relations."""
        pairs = [
            ("diagonal-0", False),
            ("diagonal-1", False),
            ("center-fan", True),
        ]
        for key, parallelogram in pairs:
            tri = self.corpus[key]
            expected = (
                self.parallelogram(key) if parallelogram else self.trapezoid(key)
            )
            sampled = interpolated_relation(tri, seed=0, parallelogram=parallelogram)
            _require(
                sampled in (expected, -expected),
                f"{key}: oracle gives {canonical_str(sampled)}, "
                f"elimination gives {canonical_str(expected)}",
            )
        return "interpolation agrees with elimination on both relation kinds"

    def criterion_13(self) -> str:
        """Poofing a T-vertex dissection yields a valid triangulation."""
        dissection = corpus_dissection("tvertex")
        tri, drawing = poof(dissection)
        tri.require_valid()

        directed = {e for t in tri.triangles for e in t.directed_edges()}
        boundary_vertices = {
            v for edge in directed if edge[::-1] not in directed for v in edge
        }
        _require(
            boundary_vertices == set(CORNERS), f"boundary vertices {sorted(boundary_vertices)}"
        )

        originals = {t.name for t in dissection.triangles}
        for t in dissection.triangles:
            want = doubled_area(*dissection.triangle_points(t))
            got = drawing.triangle_area(t.name)
            _require(got == want, f"area of {t.name} changed from {want} to {got}")
        extras = [n for n in tri.triangle_names if n not in originals]
        _require(
            len(extras) == len(tri.triangles) - len(dissection.triangles),
            f"{len(extras)} fillers for {len(tri.triangles)} triangles",
        )
        for name in extras:
            _require(drawing.triangle_area(name) == 0, f"filler {name} has nonzero area")
        return (
            f"valid triangulation, 4 boundary vertices, areas kept, "
            f"{len(extras)} zero-area fillers"
        )

    # -- driver -------------------------------------------------------

    def numbered_criteria(self) -> list[tuple[int, str, Callable[[], str]]]:
        out = []
        for number in range(1, 14):
            method = getattr(self, f"criterion_{number}")
            title = method.__doc__.strip().splitlines()[0].rstrip(".")
            out.append((number, title, method))
        return out

    def run_all(self, stream: TextIO | None = None) -> list[CriterionResult]:
        """Run criteria 1-13, then judge the battery's own time budget.

        Criterion 14 asks that the whole battery pass in under five
        minutes, so it is synthesized from the other thirteen results.
        """
        if stream is None:
            stream = sys.stdout
        results: list[CriterionResult] = []
        battery_start = time.perf_counter()
        for number, title, method in self.numbered_criteria():
            started = time.perf_counter()
            try:
                detail = method()
                passed = True
            except Exception as exc:  # noqa: BLE001 - every failure is a report
                detail = f"{type(exc).__name__}: {exc}"
                passed = False
            result = CriterionResult(
                number=number,
                title=title,
                passed=passed,
                seconds=time.perf_counter() - started,
                detail=detail,
            )
            results.append(result)
            print(result.line(), file=stream)
        elapsed = time.perf_counter() - battery_start
        all_passed = all(r.passed for r in results)
        within_budget = elapsed < TIME_BUDGET
        result = CriterionResult(
            number=14,
            title="Full battery passes within the five-minute budget",
            passed=all_passed and within_budget,
            seconds=elapsed,
            detail=(
                f"{sum(r.passed for r in results)}/13 criteria passed "
                f"in {elapsed:.2f}s of {TIME_BUDGET:.0f}s"
            ),
        )
        results.append(result)
        print(result.line(), file=stream)
        return results
