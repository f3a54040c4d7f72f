"""Paired benchmark runs of two checkouts, written to a ``BENCH_*.json``.

Run from anywhere, with two checkouts of the repository (for instance the
parent commit unpacked with ``git archive`` and the working tree)::

    python3 scripts/bench_compare.py --parent ../parent --change . \\
        --workload relations --workload frontier-5 --seed 11 --out BENCH_label.json

A workload is either one of the benchmark's (``relations``, ``certify``,
``oracle``), run as ``perfbench/run.py`` with the given seed, untraced
and for the ``run_seconds`` that the change's ``BENCHMARK.json``
declares, or ``frontier-N``: ``z_T`` and then ``p_T`` of
``diagonal_family(N)`` under the default guards, each read back from its
canonical text, ``z_T`` also checked against
``diagonal_relation_formula(N)``.  ``frontier-NAME`` runs a named input
of ``NAMED`` instead, off the staircase: ``flip10`` (``p_T`` only; its
``z_T`` runs for more than 900 s), ``f4s5`` and ``f4s9`` (``z_T``).  They
have no closed formula, so the read-back and the equal digests on both
sides are their check.  Each relation is computed, written as
canonical text and read back until it has run 5 times or 1 s has passed,
whichever comes first, and each time is the median of those runs: a
single run per child read 0.71x-1.33x with the same code on both sides.
The writing and the reading are each timed after a ``gc.collect()``, so
they do not pay for what the elimination left in the heap.  A frontier
run prints the same JSON line as a benchmark run (``correct``,
``attempted``, ``failed`` and the ``metrics`` ``zt_s``, ``pt_s``,
``zt_text_s``, ``pt_text_s``, ``zt_parse_s``, ``pt_parse_s``) plus
``runs``, the number of runs of each relation, and ``digests``: terms,
degree and sha256 of each relation's canonical text, taken once.

Every child runs in its checkout with that checkout's ``src/`` on
``PYTHONPATH`` and ``PYTHONPYCACHEPREFIX`` set to a fresh empty
directory, so bytecode left in a checkout's ``__pycache__`` by earlier
runs cannot make one side's set-up cheaper.  Each child gets ``LIMIT``
seconds of wall time; a timeout or a nonzero exit is recorded in the
run's entry.  Each of ten pairs runs the workload once in each
checkout, alternating which side goes first.  The
output keeps every run and, per workload and metric, over the pairs where
both sides finished, each side's median and quartiles, the pairs the
change won (ties count for neither side), and whether the gain rule
holds: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's interquartile range.  Lower is better
for every metric.  The exit code is 1 when a run failed, a run is not
``correct``, or the frontier digests are not all equal; else 0.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10
TRACE = 0
LIMIT = 1500.0

# Inputs off the staircase, from seeded edge-flip walks: the relations
# each child computes, then the triangles, named A1..An, B1..Bn in list
# order, with the corners p q r s and a digit k for the vertex pk.
NAMED = {
    "flip10": (["pt"], "pq3 p1s 4r2 321 4qr 5s2 1p3 q43 342 2s1 5rs r52"),
    "f4s5": (["zt"], "14p 134 3q2 4sp s43 2s3 pq1 q31 qr2 rs2"),
    "f4s9": (["zt"], "sp1 1p3 13s 2r4 324 qr2 p23 rs4 pq2 34s"),
}


def frontier_input(name: str) -> dict:
    """What the child of ``frontier-NAME`` computes: the relation kinds,
    and ``n`` for ``diagonal_family(n)`` or a named input's triangulation
    JSON."""
    if name.isdigit():
        return {"kinds": ["zt", "pt"], "n": int(name)}
    if name not in NAMED:
        known = ", ".join(NAMED)
        raise ValueError(f"unknown frontier input {name!r}; use a number or one of {known}")
    kinds, text = NAMED[name]
    words = text.split()
    half = len(words) // 2
    names = [f"A{i}" for i in range(1, half + 1)] + [f"B{i}" for i in range(1, half + 1)]
    triangles = [["p" + c if c.isdigit() else c for c in word] for word in words]
    interior = ["p" + c for c in sorted({c for c in text if c.isdigit()})]
    return {
        "kinds": kinds,
        "triangulation": {
            "vertices": ["p", "q", "r", "s", *interior],
            "triangles": [{"name": n, "vertices": t} for n, t in zip(names, triangles)],
        },
    }


FRONTIER = """
import gc, hashlib, json, statistics, sys, time
from areapoly.poly import canonical_str, parse_polynomial
from areapoly.triangulation import diagonal_family, triangulation_from_json
from areapoly.variety import (
    diagonal_relation_formula, parallelogram_polynomial, relation_ring, trapezoid_polynomial,
)

spec = json.loads(sys.argv[1])
if "n" in spec:
    tri, formula = diagonal_family(spec["n"]), diagonal_relation_formula(spec["n"])
else:
    tri, formula = triangulation_from_json(spec["triangulation"]).require_valid(), None
compute = {"zt": trapezoid_polynomial, "pt": parallelogram_polynomial}
metrics, runs, digests, failed = {}, {}, {}, 0
for kind in spec["kinds"]:
    ring = relation_ring(tri, with_frame=kind == "zt")
    times, text_times, parse_times = [], [], []
    wrong, begun = False, time.perf_counter()
    while len(times) < 5 and (not times or time.perf_counter() - begun < 1):
        started = time.perf_counter()
        relation = compute[kind](tri)
        times.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        text = canonical_str(relation)
        text_times.append(time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        parsed = parse_polynomial(text, ring)
        parse_times.append(time.perf_counter() - started)
        wrong |= parsed != relation
    for name, values in (("_s", times), ("_text_s", text_times), ("_parse_s", parse_times)):
        metrics[kind + name] = {"value": statistics.median(values), "unit": "s"}
    runs[kind] = len(times)
    digests[kind] = {
        "terms": len(relation.terms),
        "degree": relation.total_degree(),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    failed += wrong or (kind == "zt" and formula is not None and relation != formula)
result = {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
print(json.dumps({**result, "runs": runs, "digests": digests}))
"""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    if workload.startswith("frontier-"):
        spec = frontier_input(workload.removeprefix("frontier-"))
        command = [sys.executable, "-c", FRONTIER, json.dumps(spec)]
    else:
        command = [sys.executable, "perfbench/run.py", "--workload", workload]
        command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(TRACE)]
    with tempfile.TemporaryDirectory() as cache:
        env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
        env["PYTHONPYCACHEPREFIX"] = cache
        try:
            done = subprocess.run(
                command, cwd=checkout, env=env, capture_output=True, text=True, timeout=LIMIT
            )
        except subprocess.TimeoutExpired:
            return {"status": "timeout"}
    if done.returncode != 0:
        return {"status": "error: " + (done.stderr.strip().splitlines() or ["no output"])[-1]}
    return {"status": "ok", **json.loads(done.stdout.strip().splitlines()[-1])}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[dict], change: list[dict]) -> dict:
    """Per metric, the two sides over the pairs where both finished; none
    when fewer than two pairs did."""
    pairs = [(b, a) for b, a in zip(parent, change) if b["status"] == a["status"] == "ok"]
    if len(pairs) < 2:
        return {}
    out = {}
    for name, first in pairs[0][0]["metrics"].items():
        before = [b["metrics"][name]["value"] for b, _ in pairs]
        after = [a["metrics"][name]["value"] for _, a in pairs]
        wins = sum(a < b for a, b in zip(after, before))
        spread_before, spread_after = quartiles(before), quartiles(after)
        gap = spread_before["median"] - spread_after["median"]
        out[name] = {
            "unit": first["unit"],
            "parent": spread_before,
            "change": spread_after,
            "change_over_parent": spread_after["median"] / spread_before["median"],
            "change_wins": wins,
            "gain_holds": wins * 10 >= 9 * len(pairs)
            and gap > spread_before["q3"] - spread_before["q1"],
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for workload in args.workload:
        if workload.startswith("frontier-"):
            try:
                frontier_input(workload.removeprefix("frontier-"))
            except ValueError as exc:
                parser.error(str(exc))
    seconds = json.loads((args.change / "BENCHMARK.json").read_text())["run_seconds"]

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": TRACE,
        "limit_s": LIMIT,
        "pairs": PAIRS,
        "workloads": {},
    }
    bad = False
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                run = run_once(checkout, workload, args.seed, seconds)
                runs[side].append(run)
                bad |= not run.get("correct", False)
                print(f"{workload} pair {pair + 1}/{PAIRS}: {side} {run['status']}", file=sys.stderr)
        every = runs["parent"] + runs["change"]
        bad |= len({json.dumps(r["digests"], sort_keys=True) for r in every if "digests" in r}) > 1
        report["workloads"][workload] = {
            "failed": {side: [r.get("failed") for r in runs[side]] for side in runs},
            "attempted": {side: [r.get("attempted") for r in runs[side]] for side in runs},
            "metrics": compare(runs["parent"], runs["change"]),
            "runs": runs,
        }
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
