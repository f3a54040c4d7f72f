"""Command line surface over the area relation toolkit.

One subcommand per headline capability, stable JSON file formats, and
disciplined exit codes:

- ``0``: the requested computation or check succeeded;
- ``1``: a verifiable claim failed (invalid object, broken certificate,
  mismatched relation, nonzero evaluation);
- ``2``: the input could not be understood (missing file, malformed
  JSON, polynomial syntax error, unknown or clashing names);
- ``3``: a resource guard stopped an elimination before completion.

Every subcommand accepts ``--json`` for a machine-readable payload on
standard output; diagnostics go to standard error.  Commands that draw
random samples take ``--seed`` and are byte-reproducible for a fixed
seed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Callable, Mapping, Sequence, TypeVar

from .areamap import (
    Drawing,
    drawing_from_json,
    drawing_to_json,
    random_drawing,
    save_drawing,
)
from .coloring import (
    ColoringError,
    color_dissection,
    equidissection_report,
    rainbow_certificate,
)
from .corpus import corpus_dissection, corpus_names, relation_corpus
from .dissection import (
    InvalidDissectionError,
    dissection_from_json,
    poof,
)
from .exact import RationalSyntaxError, format_rational
from .groebner import GuardConfig, NotPrincipalError, ResourceGuardError
from .poly import (
    NotHomogeneousError,
    Poly,
    PolySyntaxError,
    Ring,
    canonical_str,
    parse_polynomial,
)
from .triangulation import (
    CombinatorialTriangulation,
    InvalidTriangulationError,
    diagonal_family,
    save_triangulation,
    triangulation_from_json,
    triangulation_to_json,
)
from .variety import (
    FRAME_VARIABLE,
    FamilyIdentityError,
    NameCollisionError,
    OracleError,
    RelationShapeError,
    areas_algebraically_independent,
    diagonal_relation_formula,
    drawing_values,
    family_quotient,
    frame_power_profile,
    interpolated_relation,
    is_frame_monic,
    is_monic_in_every_variable,
    parallelogram_polynomial,
    relation_ring,
    trapezoid_polynomial,
    verify_vanishing,
)

__all__ = ["main"]

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


class CliInputError(Exception):
    """Input that could not be understood; maps to exit code 2."""


# ---------------------------------------------------------------------------
# input plumbing
# ---------------------------------------------------------------------------


T = TypeVar("T")


def _load(path: str, from_json: Callable[[Mapping], T]) -> T:
    """Read the JSON object at ``path`` and decode it with ``from_json``.

    Every read, decode or shape failure becomes a :class:`CliInputError`;
    ``RecursionError`` is how the decoder rejects absurdly deep nesting.
    """
    try:
        with open(path) as fh:
            return from_json(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise CliInputError(f"cannot load {path}: {exc}") from exc


def _any_object_from_json(data: Mapping) -> tuple[str, object]:
    """The kind and the decoded object, inferred from the top-level keys."""
    if "points" in data and "triangulation" in data:
        return "drawing", drawing_from_json(data)
    if "points" in data:
        return "dissection", dissection_from_json(data)
    if "vertices" in data and "triangles" in data:
        return "triangulation", triangulation_from_json(data)
    raise CliInputError(
        "JSON object is none of: triangulation (vertices+triangles), "
        "dissection (points+triangles), drawing (triangulation+points)"
    )


def _resolve_triangulation(args: argparse.Namespace) -> CombinatorialTriangulation:
    sources = [
        args.file is not None,
        args.diagonal is not None,
        args.corpus is not None,
    ]
    if sum(sources) != 1:
        raise CliInputError(
            "choose exactly one source: a triangulation file, --diagonal N, "
            "or --corpus KEY"
        )
    if args.diagonal is not None:
        if args.diagonal < 0:
            raise CliInputError("--diagonal takes a nonnegative step count")
        return diagonal_family(args.diagonal)
    if args.corpus is not None:
        corpus = relation_corpus()
        if args.corpus not in corpus:
            raise CliInputError(
                f"unknown corpus triangulation {args.corpus!r}; "
                f"available: {', '.join(corpus)}"
            )
        return corpus[args.corpus]
    return _load(args.file, triangulation_from_json)


def _resolve_dissection(args: argparse.Namespace):
    if (args.file is None) == (args.corpus is None):
        raise CliInputError(
            "choose exactly one source: a dissection file or --corpus KEY"
        )
    if args.corpus is not None:
        try:
            return corpus_dissection(args.corpus)
        except KeyError as exc:
            raise CliInputError(str(exc)) from exc
    return _load(args.file, dissection_from_json)


def _guard(args: argparse.Namespace) -> GuardConfig:
    try:
        return GuardConfig(max_basis=args.guard_basis, max_coeff_bits=args.guard_bits)
    except ValueError as exc:
        raise CliInputError(f"invalid guard limits: {exc}") from exc


def _read_relation(path: str, tri: CombinatorialTriangulation, with_frame: bool) -> Poly:
    """The relation in the text file at ``path``, over the triangulation's
    relation ring.

    A relation of the paper is homogeneous of degree at most the triangle
    count plus one; anything else is refused before it is evaluated, so a
    huge exponent cannot blow up the exact arithmetic.
    """
    with open(path) as fh:
        text = fh.read()
    relation = parse_polynomial(text.strip(), relation_ring(tri, with_frame=with_frame))
    if relation.is_zero():
        return relation
    try:
        degree = relation.homogeneous_degree()
    except NotHomogeneousError as exc:
        raise CliInputError(f"relation in {path} is not homogeneous: {exc}") from exc
    limit = len(tri.triangles) + 1
    if degree > limit:
        raise CliInputError(
            f"relation in {path} has degree {degree}, above the triangle count plus one ({limit})"
        )
    return relation


def _emit(args: argparse.Namespace, payload: dict, lines: Sequence[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _valuation_json(value: object) -> int | None:
    return value if isinstance(value, int) else None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    kind, obj = _load(args.file, _any_object_from_json)
    problems = _drawing_problems(obj) if kind == "drawing" else obj.validate()
    ok = not problems
    _emit(
        args,
        {"command": "validate", "kind": kind, "ok": ok, "problems": problems},
        [f"{kind}: {'valid' if ok else 'INVALID'}", *(f"- {p}" for p in problems)],
    )
    return EXIT_PASS if ok else EXIT_VIOLATION


def cmd_poof(args: argparse.Namespace) -> int:
    dissection = _resolve_dissection(args)
    tri, drawing = poof(dissection)
    originals = {t.name for t in dissection.triangles}
    fillers = [n for n in tri.triangle_names if n not in originals]
    if args.out_triangulation:
        save_triangulation(tri, args.out_triangulation)
    if args.out_drawing:
        save_drawing(drawing, args.out_drawing)
    _emit(
        args,
        {
            "command": "poof",
            "ok": True,
            "triangulation": triangulation_to_json(tri),
            "drawing": drawing_to_json(drawing),
            "fillers": fillers,
        },
        [
            f"poofed {len(originals)} triangles into {len(tri.triangles)} "
            f"({len(fillers)} zero-area fillers: {', '.join(fillers) or 'none'})",
            f"vertices: {', '.join(tri.vertices)}",
        ],
    )
    return EXIT_PASS


def _relation_command(args: argparse.Namespace, parallelogram: bool) -> int:
    tri = _resolve_triangulation(args)
    guard = _guard(args)
    if parallelogram:
        relation = parallelogram_polynomial(tri, guard=guard)
    else:
        relation = trapezoid_polynomial(tri, guard=guard)
    name = "pt" if parallelogram else "zt"
    _emit(
        args,
        {
            "command": name,
            "relation": canonical_str(relation),
            "degree": relation.total_degree(),
            "variables": list(relation.ring.names),
        },
        [canonical_str(relation)],
    )
    return EXIT_PASS


def cmd_zt(args: argparse.Namespace) -> int:
    return _relation_command(args, parallelogram=False)


def cmd_pt(args: argparse.Namespace) -> int:
    return _relation_command(args, parallelogram=True)


def cmd_oracle_diagonal(args: argparse.Namespace) -> int:
    if args.steps < 0:
        raise CliInputError("the staircase step count must be nonnegative")
    guard = _guard(args)
    tri = diagonal_family(args.steps)
    relation = interpolated_relation(
        tri, seed=args.seed, parallelogram=args.parallelogram
    )
    if args.parallelogram:
        reference = parallelogram_polynomial(tri, guard=guard)
        reference_name = "elimination"
    else:
        reference = diagonal_relation_formula(args.steps)
        reference_name = "closed formula"
    matches = relation in (reference, -reference)
    _emit(
        args,
        {
            "command": "oracle-diagonal",
            "steps": args.steps,
            "relation": canonical_str(relation),
            "reference": canonical_str(reference),
            "matches": matches,
        },
        [
            canonical_str(relation),
            f"{reference_name} agreement: {'yes' if matches else 'NO'}",
        ],
    )
    return EXIT_PASS if matches else EXIT_VIOLATION


def cmd_check(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise CliInputError("--count takes a positive number of drawings")
    tri = _resolve_triangulation(args).require_valid()
    guard = _guard(args)
    trapezoid = (
        _read_relation(args.zt_file, tri, with_frame=True)
        if args.zt_file
        else trapezoid_polynomial(tri, guard=guard)
    )
    parallelogram = (
        _read_relation(args.pt_file, tri, with_frame=False)
        if args.pt_file
        else parallelogram_polynomial(tri, guard=guard)
    )

    checks: dict[str, bool] = {}
    notes: dict[str, str] = {}

    def record(name: str, fn: Callable[[], str]) -> None:
        try:
            notes[name] = fn()
            checks[name] = True
        except (RelationShapeError, FamilyIdentityError) as exc:
            notes[name] = str(exc)
            checks[name] = False

    def check_frame_monic() -> str:
        if not is_frame_monic(trapezoid):
            raise RelationShapeError(f"coefficient of {FRAME_VARIABLE}^degree is not one")
        return "trapezoid relation is monic in the frame variable"

    def check_all_monic() -> str:
        if not is_monic_in_every_variable(parallelogram):
            raise RelationShapeError("some top pure power misses a unit coefficient")
        return "parallelogram relation is monic in every variable"

    def check_profile() -> str:
        profile = frame_power_profile(trapezoid)
        parts = ", ".join(f"{k}:{a}+{b}" for k, (a, b) in profile.items())
        return f"single-triangle restrictions factor as promised ({parts})"

    def check_divisibility() -> str:
        quotient = family_quotient(trapezoid, parallelogram)
        return f"doubling quotient: {canonical_str(quotient)}"

    def check_independence() -> str:
        if not areas_algebraically_independent(tri, guard=guard):
            raise RelationShapeError("areas satisfy a frame-free relation")
        return "no frame-free relation among the areas"

    def check_vanishing() -> str:
        count = verify_vanishing(trapezoid, tri, seed=args.seed, count=args.count)
        count += verify_vanishing(
            parallelogram, tri, seed=args.seed + 1, count=args.count, parallelogram=True
        )
        return f"{count} random evaluations are zero"

    record("frame-monic", check_frame_monic)
    record("variable-monic", check_all_monic)
    record("restriction-profile", check_profile)
    record("doubling-divisibility", check_divisibility)
    record("independence", check_independence)
    record("vanishing", check_vanishing)

    ok = all(checks.values())
    lines = [
        f"{'ok  ' if checks[name] else 'FAIL'} {name}: {notes[name]}" for name in checks
    ]
    lines.append(f"overall: {'pass' if ok else 'FAIL'}")
    _emit(
        args,
        {
            "command": "check",
            "ok": ok,
            "checks": checks,
            "notes": notes,
            "trapezoid": canonical_str(trapezoid),
            "parallelogram": canonical_str(parallelogram),
        },
        lines,
    )
    return EXIT_PASS if ok else EXIT_VIOLATION


def _drawing_problems(drawing: Drawing) -> list[str]:
    """The problems of the drawing's triangulation, then of its points."""
    return [*drawing.triangulation.validate(), *drawing.validate()]


def _valid_drawing(path: str) -> Drawing | None:
    """The drawing at ``path``, or None after printing its problems."""
    drawing = _load(path, drawing_from_json)
    problems = _drawing_problems(drawing)
    for problem in problems:
        print(problem, file=sys.stderr)
    return None if problems else drawing


def cmd_areas(args: argparse.Namespace) -> int:
    drawing = _valid_drawing(args.file)
    if drawing is None:
        return EXIT_VIOLATION
    vector = drawing.area_vector()
    frame = drawing.frame_area()
    _emit(
        args,
        {
            "command": "areas",
            "areas": {n: format_rational(v) for n, v in vector.as_dict().items()},
            "frame": format_rational(frame),
            "total": format_rational(vector.total()),
        },
        [
            *(f"{n}: {format_rational(v)}" for n, v in vector.as_dict().items()),
            f"frame ({FRAME_VARIABLE}): {format_rational(frame)}",
            f"total: {format_rational(vector.total())}",
        ],
    )
    return EXIT_PASS


def cmd_verify_vanish(args: argparse.Namespace) -> int:
    drawing = _valid_drawing(args.file)
    if drawing is None:
        return EXIT_VIOLATION
    relation = _read_relation(args.relation, drawing.triangulation, with_frame=True)
    result = relation.evaluate(drawing_values(drawing))
    ok = result == 0
    _emit(
        args,
        {"command": "verify-vanish", "ok": ok, "value": format_rational(result)},
        [f"value: {format_rational(result)}", f"vanishes: {'yes' if ok else 'NO'}"],
    )
    return EXIT_PASS if ok else EXIT_VIOLATION


def cmd_integral_equation(args: argparse.Namespace) -> int:
    drawing = _valid_drawing(args.file)
    if drawing is None:
        return EXIT_VIOLATION
    relation = trapezoid_polynomial(drawing.triangulation, guard=_guard(args))
    target = Ring((FRAME_VARIABLE,))
    values = drawing_values(drawing)
    frame = values[FRAME_VARIABLE]
    images: dict[str, object] = {**values, FRAME_VARIABLE: Poly.variable(target, FRAME_VARIABLE)}
    univariate = relation.substitute(images, ring=target)
    is_root = univariate.evaluate({FRAME_VARIABLE: frame}) == 0
    _emit(
        args,
        {
            "command": "integral-equation",
            "equation": canonical_str(univariate),
            "frame_value": format_rational(frame),
            "frame_is_root": is_root,
        },
        [
            f"{canonical_str(univariate)} = 0",
            f"frame area {format_rational(frame)} is a root: {'yes' if is_root else 'NO'}",
        ],
    )
    return EXIT_PASS if is_root else EXIT_VIOLATION


def cmd_color(args: argparse.Namespace) -> int:
    colors = color_dissection(_resolve_dissection(args).require_valid())
    _emit(
        args,
        {"command": "color", "colors": colors},
        [f"{v}: {c}" for v, c in colors.items()],
    )
    return EXIT_PASS


def cmd_rainbow(args: argparse.Namespace) -> int:
    certificate = rainbow_certificate(_resolve_dissection(args))
    _emit(
        args,
        {
            "command": "rainbow",
            "ok": True,
            "ratio": format_rational(certificate.ratio),
            "colors": certificate.vertex_colors,
            "boundary": certificate.boundary,
            "rainbow": list(certificate.rainbow),
            "frame_valuation": _valuation_json(certificate.frame_valuation),
            "area_valuations": {
                n: _valuation_json(v) for n, v in certificate.area_valuations.items()
            },
        },
        [
            f"boundary coloring: {certificate.boundary}",
            f"rainbow triangles: {', '.join(certificate.rainbow)}",
            f"frame valuation: {certificate.frame_valuation}",
            *(
                f"val2(area {n}): {v}"
                for n, v in certificate.area_valuations.items()
            ),
        ],
    )
    return EXIT_PASS


def cmd_equidissect_report(args: argparse.Namespace) -> int:
    report = equidissection_report(_resolve_dissection(args))
    violated = report.admissible is False
    _emit(
        args,
        {
            "command": "equidissect-report",
            "count": report.count,
            "equal_areas": report.equal_areas,
            "ratio": format_rational(report.ratio),
            "required_valuation": _valuation_json(report.required_valuation),
            "count_valuation": _valuation_json(report.count_valuation),
            "admissible": report.admissible,
            "rainbow": list(report.certificate.rainbow),
        },
        report.summary_lines(),
    )
    return EXIT_VIOLATION if violated else EXIT_PASS


def cmd_selftest(args: argparse.Namespace) -> int:
    from .acceptance import AcceptanceBattery

    results = AcceptanceBattery(guard=_guard(args)).run_all(
        sys.stderr if args.json else sys.stdout
    )
    ok = all(r.passed for r in results)
    if args.json:
        payload = {
            "command": "selftest",
            "ok": ok,
            "results": [
                {
                    "criterion": r.number,
                    "title": r.title,
                    "passed": r.passed,
                    "seconds": round(r.seconds, 3),
                    "detail": r.detail,
                }
                for r in results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_PASS if ok else EXIT_VIOLATION


def cmd_random_drawing(args: argparse.Namespace) -> int:
    tri = _resolve_triangulation(args).require_valid()
    drawing = random_drawing(tri, random.Random(args.seed), args.parallelogram, args.positive_ratio)
    if args.out:
        save_drawing(drawing, args.out)
    _emit(
        args,
        {"command": "random-drawing", "drawing": drawing_to_json(drawing)},
        [
            f"{v}: ({format_rational(x)}, {format_rational(y)})"
            for v, (x, y) in drawing.points.items()
        ],
    )
    return EXIT_PASS


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="areapoly",
        description="Exact area relations and 2-adic certificates for "
        "triangulated quadrilaterals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, guard: bool = False) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON payload")
        if guard:
            p.add_argument(
                "--guard-basis",
                type=int,
                default=GuardConfig().max_basis,
                metavar="N",
                help="abort eliminations whose basis exceeds N elements",
            )
            p.add_argument(
                "--guard-bits",
                type=int,
                default=GuardConfig().max_coeff_bits,
                metavar="N",
                help="abort eliminations whose coefficients exceed N bits",
            )

    def tri_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", nargs="?", help="triangulation JSON file")
        p.add_argument(
            "--diagonal", type=int, metavar="N", help="N-step diagonal staircase"
        )
        p.add_argument(
            "--corpus",
            metavar="KEY",
            help="benchmark triangulation: " + ", ".join(relation_corpus()),
        )

    def dissection_source(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", nargs="?", help="dissection JSON file")
        p.add_argument(
            "--corpus",
            metavar="KEY",
            help="benchmark dissection: " + ", ".join(corpus_names()),
        )

    p = sub.add_parser("validate", help="validate a triangulation, dissection, or drawing file")
    p.add_argument("file", help="JSON file; the object kind is inferred")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("poof", help="turn a dissection into a combinatorial triangulation plus drawing")
    dissection_source(p)
    p.add_argument("--out-triangulation", metavar="PATH", help="write the triangulation JSON here")
    p.add_argument("--out-drawing", metavar="PATH", help="write the drawing JSON here")
    common(p)
    p.set_defaults(fn=cmd_poof)

    p = sub.add_parser("zt", help="trapezoid relation of a triangulation")
    tri_source(p)
    common(p, guard=True)
    p.set_defaults(fn=cmd_zt)

    p = sub.add_parser("pt", help="parallelogram relation of a triangulation")
    tri_source(p)
    common(p, guard=True)
    p.set_defaults(fn=cmd_pt)

    p = sub.add_parser(
        "oracle-diagonal",
        help="interpolate the staircase relation from random drawings and "
        "compare against the closed formula",
    )
    p.add_argument("steps", type=int, help="number of staircase steps")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--parallelogram",
        action="store_true",
        help="interpolate the parallelogram relation and compare against elimination",
    )
    common(p, guard=True)
    p.set_defaults(fn=cmd_oracle_diagonal)

    p = sub.add_parser(
        "check",
        help="verify monicity, restriction profile, divisibility, independence, "
        "and vanishing for a triangulation",
    )
    tri_source(p)
    p.add_argument("--all", action="store_true", help="run every check (the default)")
    p.add_argument("--zt-file", metavar="PATH", help="use this trapezoid relation instead of eliminating")
    p.add_argument("--pt-file", metavar="PATH", help="use this parallelogram relation instead of eliminating")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20, help="random drawings per vanishing check")
    common(p, guard=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("areas", help="area vector of a drawing")
    p.add_argument("file", help="drawing JSON file")
    common(p)
    p.set_defaults(fn=cmd_areas)

    p = sub.add_parser("verify-vanish", help="evaluate a relation on a drawing")
    p.add_argument("file", help="drawing JSON file")
    p.add_argument("relation", help="polynomial text file over U and the triangle names")
    common(p)
    p.set_defaults(fn=cmd_verify_vanish)

    p = sub.add_parser(
        "integral-equation",
        help="monic equation in the frame variable with coefficients from a drawing",
    )
    p.add_argument("file", help="drawing JSON file")
    common(p, guard=True)
    p.set_defaults(fn=cmd_integral_equation)

    p = sub.add_parser("color", help="2-adic vertex colors of a dissection")
    dissection_source(p)
    common(p)
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("rainbow", help="rainbow certificate of a dissection")
    dissection_source(p)
    common(p)
    p.set_defaults(fn=cmd_rainbow)

    p = sub.add_parser("equidissect-report", help="equal-area counting report of a dissection")
    dissection_source(p)
    common(p)
    p.set_defaults(fn=cmd_equidissect_report)

    p = sub.add_parser("random-drawing", help="sample a seeded random drawing of a triangulation")
    tri_source(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--parallelogram", action="store_true", help="force ratio one")
    p.add_argument(
        "--positive-ratio",
        action="store_true",
        help="force a counterclockwise frame with positive ratio",
    )
    p.add_argument("--out", metavar="PATH", help="write the drawing JSON here")
    common(p)
    p.set_defaults(fn=cmd_random_drawing)

    p = sub.add_parser("selftest", help="run the full acceptance battery")
    common(p, guard=True)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliInputError, NameCollisionError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except (PolySyntaxError, RationalSyntaxError) as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvalidTriangulationError as exc:
        print(f"invalid triangulation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except InvalidDissectionError as exc:
        print(f"invalid dissection: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ColoringError, NotPrincipalError, OracleError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    raise SystemExit(main())
