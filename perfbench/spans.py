"""Spans for the traced run: wrappers at the package's public boundaries.

:func:`install` replaces each traced function by a wrapper at the name
its callers look up (``areapoly.variety.eliminate`` for the elimination
that the relation builders call, ``areapoly.groebner.buchberger`` for
the runs inside it, class attributes for methods) and returns the
originals so :func:`uninstall` can put them back.  The untraced run
never calls :func:`install`.

Each span records its name, the op it ran under, its parent span, its
start and end, and an optional count read off its arguments or result.
Spans stay in memory; :func:`layer_metrics` folds them into per-layer
numbers when the run ends.  A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable


@dataclass
class Span:
    name: str
    op: object
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps the spans of one traced run.

    ``op`` tags the spans of the operation currently running; while it is
    None (the benchmark checking an output) calls pass through unrecorded.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: object = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, self.op, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = clock()
                stack.pop()
                if note is not None:
                    span.info = note(args, None, exc)
                raise
            span.end = clock()
            stack.pop()
            if note is not None:
                span.info = note(args, result, None)
            return result

        return traced


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------


def _coeff_bits(polys) -> int:
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for p in polys
            for c in p.terms.values()
        ),
        default=0,
    )


def _note_eliminate(mods: SimpleNamespace) -> Callable:
    guard_error = mods.groebner.ResourceGuardError

    def note(args, result, error) -> dict:
        gens = [g for g in args[0] if not g.is_zero()]
        info = {
            "in_gens": len(gens),
            "ring_width": len(gens[0].ring) if gens else 0,
            "guard_trip": isinstance(error, guard_error),
        }
        if result is not None:
            info["out_basis"] = len(result)
            info["out_max_coeff_bits"] = _coeff_bits(result)
        return info

    return note


def _note_nullspace(args, result, error) -> dict:
    rows = args[0]
    info = {"rows": len(rows), "cols": len(rows[0]) if rows else 0}
    if result is not None:
        info["empty"] = not result
    return info


def _note_rainbow(args, result, error) -> dict:
    return {"rainbow": len(result.rainbow)} if result is not None else {}


def targets(mods: SimpleNamespace) -> list[tuple[str, object, str, Callable | None]]:
    """(span name, owner, attribute, note) for every traced boundary.

    The owner is the module or class whose attribute the caller reads:
    the benchmark's own ops call through ``mods``, and the package's
    internal calls go through the importing module's globals.
    """
    v, c, d, p = mods.variety, mods.coloring, mods.dissection, mods.poly
    return [
        ("groebner.eliminate", v, "eliminate", _note_eliminate(mods)),
        ("groebner.buchberger", mods.groebner, "buchberger", None),
        ("variety.trapezoid_polynomial", v, "trapezoid_polynomial", None),
        ("variety.parallelogram_polynomial", v, "parallelogram_polynomial", None),
        ("variety.areas_algebraically_independent", v, "areas_algebraically_independent", None),
        ("variety.interpolated_relation", v, "interpolated_relation", None),
        ("variety.rational_nullspace", v, "rational_nullspace", _note_nullspace),
        ("variety.verify_vanishing", v, "verify_vanishing", None),
        ("variety.frame_power_profile", v, "frame_power_profile", None),
        ("variety.family_quotient", v, "family_quotient", None),
        ("areamap.gauged_areas", v, "gauged_areas", None),
        ("areamap.random_drawing", v, "random_drawing", None),
        ("areamap.random_drawing", mods.areamap, "random_drawing", None),
        ("poly.Poly.substitute", p.Poly, "substitute", None),
        ("poly.Poly.evaluate", p.Poly, "evaluate", None),
        ("poly.exact_quotient", v, "exact_quotient", None),
        ("poly.parse_polynomial", p, "parse_polynomial", None),
        ("poly.canonical_str", p, "canonical_str", None),
        ("coloring.drawing_certificate", c, "drawing_certificate", _note_rainbow),
        ("coloring.rainbow_certificate", c, "rainbow_certificate", _note_rainbow),
        ("coloring.equidissection_report", c, "equidissection_report", None),
        ("dissection.poof", d, "poof", None),
        ("dissection.validate_dissection", d, "validate_dissection", None),
        ("triangulation.require_valid", mods.triangulation.CombinatorialTriangulation, "require_valid", None),
    ]


def install(tracer: Tracer, mods: SimpleNamespace) -> list[tuple[object, str, Callable]]:
    saved = []
    for name, owner, attr, note in targets(mods):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, note))
    return saved


def uninstall(saved: list[tuple[object, str, Callable]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# Span names and the statistics reported for each.
_REPORTED = {
    "groebner.eliminate": ("calls", "busy_s", "self_s"),
    "groebner.buchberger": ("calls", "busy_s"),
    "variety.trapezoid_polynomial": ("self_s",),
    "variety.parallelogram_polynomial": ("self_s",),
    "variety.areas_algebraically_independent": ("self_s",),
    "variety.interpolated_relation": ("busy_s", "self_s"),
    "variety.rational_nullspace": ("calls", "busy_s"),
    "variety.verify_vanishing": ("busy_s",),
    "variety.frame_power_profile": ("busy_s",),
    "variety.family_quotient": ("busy_s",),
    "areamap.gauged_areas": ("calls", "busy_s"),
    "areamap.random_drawing": ("calls", "busy_s"),
    "poly.Poly.substitute": ("calls", "busy_s"),
    "poly.Poly.evaluate": ("calls", "busy_s"),
    "poly.exact_quotient": ("busy_s",),
    "poly.parse_polynomial": ("busy_s",),
    "poly.canonical_str": ("busy_s",),
    "coloring.drawing_certificate": ("calls", "busy_s"),
    "coloring.rainbow_certificate": ("calls", "busy_s"),
    "coloring.equidissection_report": ("calls", "busy_s"),
    "dissection.poof": ("calls", "busy_s"),
    "dissection.validate_dissection": ("calls", "busy_s"),
    "triangulation.require_valid": ("calls", "busy_s"),
}

_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

# Metrics derived from span counts, with their units.
DERIVED_UNITS = {
    "groebner.buchberger.reruns": "count",
    "groebner.in_gens": "count",
    "groebner.ring_width": "count",
    "groebner.out_basis": "count",
    "groebner.out_max_coeff_bits": "bits",
    "groebner.guard_trips": "count",
    "variety.rational_nullspace.rows": "count",
    "variety.rational_nullspace.cols": "count",
    "variety.oracle.empty_nullspace_frac": "ratio",
    "coloring.rainbow_per_certificate": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the spans give, with its unit."""
    units = {
        f"{name}.{stat}": _UNITS[stat] for name, stats in _REPORTED.items() for stat in stats
    }
    units.update(DERIVED_UNITS)
    return units


def _ancestor(spans: list[Span], index: int, name: str) -> int | None:
    """Index of the nearest enclosing span called ``name``, if any."""
    parent = spans[index].parent
    while parent is not None and spans[parent].name != name:
        parent = spans[parent].parent
    return parent


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Fold spans into the per-layer metrics of :func:`metric_units`.

    ``busy_s`` sums the spans of a name that have no ancestor of the same
    name, so a name never counts the same interval twice.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    calls = {name: 0 for name in _REPORTED}
    busy = {name: 0.0 for name in _REPORTED}
    own = {name: 0.0 for name in _REPORTED}
    buchberger_runs: dict[int, int] = {}
    for index, span in enumerate(spans):
        calls[span.name] += 1
        own[span.name] += span.duration - covered[index]
        if _ancestor(spans, index, span.name) is None:
            busy[span.name] += span.duration
        if span.name == "groebner.buchberger":
            run = _ancestor(spans, index, "groebner.eliminate")
            if run is not None:
                buchberger_runs[run] = buchberger_runs.get(run, 0) + 1

    stats = {"calls": calls, "busy_s": busy, "self_s": own}
    out = {
        f"{name}.{stat}": stats[stat][name] for name, names in _REPORTED.items() for stat in names
    }

    def infos(name: str) -> list[dict]:
        return [s.info for s in spans if s.name == name]

    elim = infos("groebner.eliminate")
    out["groebner.buchberger.reruns"] = sum(max(0, n - 1) for n in buchberger_runs.values())
    out["groebner.in_gens"] = sum(i["in_gens"] for i in elim)
    out["groebner.ring_width"] = sum(i["ring_width"] for i in elim)
    out["groebner.out_basis"] = sum(i.get("out_basis", 0) for i in elim)
    out["groebner.out_max_coeff_bits"] = max((i.get("out_max_coeff_bits", 0) for i in elim), default=0)
    out["groebner.guard_trips"] = sum(i["guard_trip"] for i in elim)
    null = infos("variety.rational_nullspace")
    out["variety.rational_nullspace.rows"] = sum(i["rows"] for i in null)
    out["variety.rational_nullspace.cols"] = sum(i["cols"] for i in null)
    solved = [i for i in null if "empty" in i]
    out["variety.oracle.empty_nullspace_frac"] = (
        sum(i["empty"] for i in solved) / len(solved) if solved else 0.0
    )
    certificates = infos("coloring.drawing_certificate") + infos("coloring.rainbow_certificate")
    certificates = [i for i in certificates if "rainbow" in i]
    out["coloring.rainbow_per_certificate"] = (
        sum(i["rainbow"] for i in certificates) / len(certificates) if certificates else 0.0
    )
    return out


def op_counts(spans: list[Span]) -> dict[str, dict]:
    """Work counts of the first execution of each op label: the
    eliminations' input generators, ring width and output basis size, and
    the shape of every nullspace the oracle solved.

    Ops are tagged ``(position in the pass, label)``, so executions of a
    repeated op stay apart.
    """
    runs: dict[object, dict] = {}
    for span in spans:
        if span.name == "groebner.eliminate":
            entry = [span.info["in_gens"], span.info["ring_width"], span.info.get("out_basis")]
            runs.setdefault(span.op, {}).setdefault("eliminate", []).append(entry)
        elif span.name == "variety.rational_nullspace":
            entry = [span.info["rows"], span.info["cols"]]
            runs.setdefault(span.op, {}).setdefault("nullspace", []).append(entry)
    out: dict[str, dict] = {}
    for tag, counts in runs.items():
        if isinstance(tag, tuple):
            out.setdefault(tag[1], counts)
    return out
