"""Regenerate ``reference.json``, the outputs the benchmark checks against.

Run from the repository root::

    python3 perfbench/make_reference.py

Every relation string is computed by elimination and accepted only after
it vanishes exactly on seeded random drawings; the diagonal staircase
relations must also equal :func:`areapoly.variety.diagonal_relation_formula`.
The certify references (restriction profiles, doubling quotients, rainbow
certificates and equidissection reports) are read off the accepted
relations and the corpus dissections.  The file is written once and only
rewritten on purpose: the benchmark exists to show that later changes
keep these outputs byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

VANISHING_DRAWINGS = 40


def _accepted(mods, key: str, tri, kind: str) -> str:
    variety = mods.variety
    if kind == "zt":
        relation = variety.trapezoid_polynomial(tri)
        variety.verify_vanishing(relation, tri, seed=11, count=VANISHING_DRAWINGS)
        variety.verify_parallelogram_frame_vanishing(
            relation, tri, seed=12, count=VANISHING_DRAWINGS
        )
        if key.startswith("diagonal-") and "/" not in key:
            n = int(key.split("-")[1])
            if relation != variety.diagonal_relation_formula(n):
                raise SystemExit(f"{key} z_T differs from the closed staircase formula")
    else:
        relation = variety.parallelogram_polynomial(tri)
        variety.verify_vanishing(
            relation, tri, seed=13, count=VANISHING_DRAWINGS, parallelogram=True
        )
    return mods.poly.canonical_str(relation)


def generate() -> dict:
    mods = workloads.load_modules()
    variety, coloring, corpus = mods.variety, mods.coloring, mods.corpus
    relations: dict[str, dict] = {}
    for key, (tri, kinds) in workloads.relation_inputs(mods).items():
        entry = {}
        for kind in kinds:
            if kind == "free":
                entry[kind] = variety.areas_algebraically_independent(tri)
            else:
                entry[kind] = _accepted(mods, key, tri, kind)
            print(f"{key} {kind}: {entry[kind]}", flush=True)
        relations[key] = entry

    reference = {"relations": relations}
    profiles, quotients = {}, {}
    for key, tri in corpus.relation_corpus().items():
        z = mods.poly.parse_polynomial(relations[key]["zt"], variety.relation_ring(tri))
        p = mods.poly.parse_polynomial(
            relations[key]["pt"], variety.relation_ring(tri, with_frame=False)
        )
        profiles[key] = {n: list(ab) for n, ab in variety.frame_power_profile(z).items()}
        quotients[key] = mods.poly.canonical_str(variety.family_quotient(z, p))
    rainbow, equidissection = {}, {}
    for name in corpus.corpus_names():
        dissection = corpus.corpus_dissection(name)
        certificate = coloring.rainbow_certificate(dissection)
        rainbow[name] = [certificate.boundary, list(certificate.rainbow)]
        equidissection[name] = coloring.equidissection_report(dissection).summary_lines()
    reference["certify"] = {
        "profiles": profiles,
        "quotients": quotients,
        "rainbow": rainbow,
        "equidissection": equidissection,
    }
    return reference


def main() -> int:
    reference = generate()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
