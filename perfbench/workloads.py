"""Inputs, operations and output checks of the three benchmark workloads.

Every workload is built from the public API of ``areapoly`` alone.  The
package modules are looked up once per set-up through :func:`load_modules`
and every operation calls them by attribute (``mods.variety.eliminate``
style), so the traced run can put its wrappers at the names the
callers look up, and a set-up that re-imports the package gets fresh
module objects.

Workloads:

- ``relations``: Groebner elimination, the route that costs the most.
  Principal ``z_T`` runs, ``p_T`` runs with ``t`` specialized, and
  frame-free runs whose elimination ideal is zero, on inputs with 0 to
  3 interior vertices.  The frame-free run of ``diagonal-2`` is left out
  (see :data:`LEFT_OUT`).
- ``certify``: exact checks of relations read from the reference text.
  No Groebner call happens inside the timed region.
- ``oracle``: the sampling oracle (exact nullspaces over ``Fraction``),
  compared up to sign with the elimination reference.  No Groebner call
  happens here either.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

MODULES = (
    "areamap",
    "coloring",
    "corpus",
    "dissection",
    "groebner",
    "poly",
    "triangulation",
    "variety",
)

# Frontier inputs kept out of the workloads, with their cost at the commit
# the benchmark was defined on.  Each joins a workload once a change brings
# it down to a few seconds.
LEFT_OUT = {
    "relations": (
        "diagonal-3 z_T: 93 s",
        "z_T of the diagonal-2 single refinements: 11-84 s",
        "diagonal-2 frame-free elimination (criterion 8): 6.5-9.6 s, three quarters"
        " of a pass with it, which would leave two or three passes in a 30 s run",
    ),
    "certify": (),
    "oracle": (
        "diagonal-2 z_T: about 50 s",
        "diagonal-3 p_T: 224 s",
    ),
}

# The three single-input timings each workload reports, by op label.
# On ``relations`` they are the largest frozen z_T (the input behind the
# criterion-2 budget), the frontier p_T, and the costliest frame-free
# elimination (criterion 8's route) in the workload; on the others they
# are each workload's costliest inputs.
KEY_OPS = {
    "relations": {
        "key1_s": "zt diagonal-2",
        "key2_s": "pt diagonal-3",
        "key3_s": "free refined-diagonal-1",
    },
    "certify": {
        "key1_s": "quotient diagonal-2",
        "key2_s": "vanish-zt diagonal-2",
        "key3_s": "equidissect eighths",
    },
    "oracle": {
        "key1_s": "oracle-zt refined-diagonal-1",
        "key2_s": "oracle-pt diagonal-2",
        "key3_s": "oracle-zt diagonal-1",
    },
}

WORKLOADS = tuple(KEY_OPS)

DRAWINGS_PER_CHECK = 10
CERTIFICATES_PER_TRIANGULATION = 10
_GOOD_BOUNDARIES = ("CAAB", "CABB")


@dataclass
class Op:
    """One timed call into the package.

    ``run`` takes a seed drawn from the workload seed (ignored by ops
    whose output does not depend on one) and returns the output, which
    ``check`` compares with the reference outside the timed region.
    """

    label: str
    run: Callable[[int], object]
    check: Callable[[object], bool]


def load_modules() -> SimpleNamespace:
    """The package modules, imported (or fetched from the import cache)."""
    return SimpleNamespace(
        **{name: importlib.import_module(f"areapoly.{name}") for name in MODULES}
    )


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def single_refinements(mods: SimpleNamespace) -> dict:
    """The eight single-triangle barycentric refinements of the one-step
    staircase and the center fan, keyed ``base/triangle``."""
    tri = mods.triangulation
    out = {}
    for key, base in (("diagonal-1", tri.diagonal_family(1)), ("center-fan", tri.center_fan())):
        for name in base.triangle_names:
            out[f"{key}/{name}"] = tri.barycentric_refine(base, name)
    return out


def relation_inputs(mods: SimpleNamespace) -> dict:
    """Every triangulation whose relations the reference file pins, with
    the relation kinds the relations workload computes for it."""
    tri = mods.triangulation
    inputs = {
        key: (t, ("zt", "pt") if key == "diagonal-2" else ("zt", "pt", "free"))
        for key, t in mods.corpus.relation_corpus().items()
    }
    for key, t in single_refinements(mods).items():
        inputs[key] = (t, ("zt", "pt"))
    twice = tri.barycentric_refine(tri.barycentric_refine(tri.diagonal_family(1), "A1"), "B2")
    inputs["diagonal-1/A1/B2"] = (twice, ("zt",))
    inputs["diagonal-3"] = (tri.diagonal_family(3), ("pt",))
    return inputs


def oracle_inputs(mods: SimpleNamespace) -> list[tuple[str, object, str]]:
    """(label, triangulation, kind) for every oracle call of a pass."""
    out = []
    for key, t in mods.corpus.relation_corpus().items():
        for kind in ("zt", "pt"):
            if (key, kind) != ("diagonal-2", "zt"):
                out.append((key, t, kind))
    for key, t in single_refinements(mods).items():
        out.append((key, t, "pt"))
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def build(name: str, reference: dict | None = None) -> list[Op]:
    """Import the package and build one workload's op list from its inputs
    and the references."""
    reference = load_reference() if reference is None else reference
    builders = {"relations": _relations, "certify": _certify, "oracle": _oracle}
    return builders[name](load_modules(), reference)


def _relations(mods: SimpleNamespace, reference: dict) -> list[Op]:
    variety = mods.variety
    expected = reference["relations"]
    ops = []
    for key, (tri, kinds) in relation_inputs(mods).items():
        for kind in kinds:
            want = expected[key][kind]
            if kind == "free":
                run = lambda _seed, tri=tri: variety.areas_algebraically_independent(tri)
            else:
                fn = "trapezoid_polynomial" if kind == "zt" else "parallelogram_polynomial"
                run = lambda _seed, tri=tri, fn=fn: _with_text(mods, getattr(variety, fn)(tri))
            check = (lambda out, want=want: out == want) if kind == "free" else (
                lambda out, want=want: out[1] == want
            )
            ops.append(Op(f"{kind} {key}", run, check))
    return ops


def _with_text(mods: SimpleNamespace, relation) -> tuple:
    """A relation with its canonical string: the op ends when the text is out."""
    return relation, mods.poly.canonical_str(relation)


def _parsed_relations(mods: SimpleNamespace, reference: dict, corpus: dict) -> dict:
    """Corpus relations read back from their reference text."""
    out = {}
    for key, tri in corpus.items():
        for kind in ("zt", "pt"):
            ring = mods.variety.relation_ring(tri, with_frame=kind == "zt")
            out[key, kind] = mods.poly.parse_polynomial(reference["relations"][key][kind], ring)
    return out


def _certify(mods: SimpleNamespace, reference: dict) -> list[Op]:
    variety, coloring, poly = mods.variety, mods.coloring, mods.poly
    corpus = mods.corpus.relation_corpus()
    relations = _parsed_relations(mods, reference, corpus)
    expected = reference["certify"]
    ops = []
    for key, tri in corpus.items():
        z, p = relations[key, "zt"], relations[key, "pt"]
        n = DRAWINGS_PER_CHECK
        ops += [
            Op(
                f"vanish-zt {key}",
                lambda seed, z=z, tri=tri: variety.verify_vanishing(z, tri, seed=seed, count=n),
                lambda out: out == n,
            ),
            Op(
                f"vanish-pt {key}",
                lambda seed, p=p, tri=tri: variety.verify_vanishing(
                    p, tri, seed=seed, count=n, parallelogram=True
                ),
                lambda out: out == n,
            ),
            Op(
                f"frame-vanish {key}",
                lambda seed, z=z, tri=tri: variety.verify_parallelogram_frame_vanishing(
                    z, tri, seed=seed, count=n
                ),
                lambda out: out == n,
            ),
            Op(
                f"profile {key}",
                lambda _seed, z=z: variety.frame_power_profile(z),
                lambda out, want=expected["profiles"][key]: (
                    {name: list(ab) for name, ab in out.items()} == want
                ),
            ),
            Op(
                f"quotient {key}",
                lambda _seed, z=z, p=p: variety.family_quotient(z, p),
                lambda out, want=expected["quotients"][key]: poly.canonical_str(out) == want,
            ),
        ]
        for _ in range(CERTIFICATES_PER_TRIANGULATION):
            ops.append(
                Op(
                    f"drawing-certificate {key}",
                    lambda seed, tri=tri: coloring.drawing_certificate(
                        mods.areamap.random_drawing(tri, random.Random(seed), positive_ratio=True)
                    ),
                    lambda out: out.boundary in _GOOD_BOUNDARIES and len(out.rainbow) % 2 == 1,
                )
            )
    for name in mods.corpus.corpus_names():
        dissection = mods.corpus.corpus_dissection(name)
        ops += [
            Op(
                f"rainbow {name}",
                lambda _seed, d=dissection: coloring.rainbow_certificate(d),
                lambda out, want=expected["rainbow"][name]: (
                    [out.boundary, list(out.rainbow)] == want
                ),
            ),
            Op(
                f"equidissect {name}",
                lambda _seed, d=dissection: coloring.equidissection_report(d),
                lambda out, want=expected["equidissection"][name]: out.summary_lines() == want,
            ),
        ]
    tvertex = mods.corpus.corpus_dissection("tvertex")
    ops.append(
        Op(
            "poof tvertex",
            lambda _seed: _poof_and_validate(mods, tvertex),
            lambda out: _poof_checks(mods, tvertex, *out),
        )
    )
    return ops


def _poof_and_validate(mods: SimpleNamespace, dissection):
    tri, drawing = mods.dissection.poof(dissection)
    tri.require_valid()
    return tri, drawing


def _poof_checks(mods: SimpleNamespace, dissection, tri, drawing) -> bool:
    """Criterion 13: four boundary vertices, areas kept, zero-area fillers."""
    directed = {e for t in tri.triangles for e in t.directed_edges()}
    boundary = {v for edge in directed if edge[::-1] not in directed for v in edge}
    if boundary != set(mods.triangulation.CORNERS):
        return False
    originals = {t.name for t in dissection.triangles}
    for t in dissection.triangles:
        if drawing.triangle_area(t.name) != mods.areamap.doubled_area(*dissection.triangle_points(t)):
            return False
    extras = [n for n in tri.triangle_names if n not in originals]
    return len(extras) == len(tri.triangles) - len(dissection.triangles) and all(
        drawing.triangle_area(n) == 0 for n in extras
    )


def _oracle(mods: SimpleNamespace, reference: dict) -> list[Op]:
    variety, poly = mods.variety, mods.poly
    ops = []
    for key, tri, kind in oracle_inputs(mods):
        want = reference["relations"][key][kind]
        ops.append(
            Op(
                f"oracle-{kind} {key}",
                lambda seed, tri=tri, par=kind == "pt": variety.interpolated_relation(
                    tri, seed=seed, parallelogram=par
                ),
                lambda out, want=want: want in (poly.canonical_str(out), poly.canonical_str(-out)),
            )
        )
    return ops


def output_counts(out: object) -> dict:
    """Counts read off an op's output: term count, degree and the largest
    coefficient in bits for a relation; nothing for other outputs."""
    if isinstance(out, tuple):
        out = out[0]
    terms = getattr(out, "terms", None)
    if not isinstance(terms, dict):
        return {}
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in terms.values()),
        default=0,
    )
    return {"terms": len(terms), "degree": out.total_degree(), "coeff_bits": bits}
