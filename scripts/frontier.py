"""Time the staircase frontier and write the timings to a ``BENCH_*.json``.

For the parent and the change checkout and each given n this computes
``z_T`` and then ``p_T`` of ``diagonal_family(n)`` under the default
guards, in a fresh child process that imports the checkout's own
``src/``.  Each relation gets its time, size and the sha256 of its
canonical string, so two checkouts can be compared byte for byte, and
the time to parse that string back (``parse_s``) with whether the parsed
relation equals the computed one; ``z_T`` is also checked against
``diagonal_relation_formula(n)``.  Each child gets ``LIMIT`` seconds of
wall time; one that runs longer is killed and recorded as ``timeout``.

The two sides run ``ROUNDS`` times, alternating which goes first, so a
slow phase of the machine falls on both.  Every run is kept, and each
side reports per n the median of each time over its finished runs.  Only
the standard library is used.  Example, with the parent commit unpacked
by ``git archive`` next to the working tree::

    python3 scripts/frontier.py --parent ../parent --change . \\
        --n 3 4 5 --out BENCH_frontier.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

LIMIT = 1500.0
ROUNDS = 5

CHILD = """
import hashlib, json, sys, time
from areapoly.poly import canonical_str, parse_polynomial
from areapoly.triangulation import diagonal_family
from areapoly.variety import (
    diagonal_relation_formula, parallelogram_polynomial, relation_ring, trapezoid_polynomial,
)

n = int(sys.argv[1])
tri = diagonal_family(n)
out = {}
for kind, compute in (("zt", trapezoid_polynomial), ("pt", parallelogram_polynomial)):
    started = time.perf_counter()
    relation = compute(tri)
    seconds = time.perf_counter() - started
    text = canonical_str(relation)
    started = time.perf_counter()
    parsed = parse_polynomial(text, relation_ring(tri, with_frame=kind == "zt"))
    out[kind] = {
        "seconds": seconds,
        "parse_s": time.perf_counter() - started,
        "round_trips": parsed == relation,
        "terms": len(relation.terms),
        "degree": relation.total_degree(),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    if kind == "zt":
        out[kind]["matches_formula"] = relation == diagonal_relation_formula(n)
print(json.dumps(out))
"""


def run_one(checkout: Path, n: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout.resolve() / "src")}
    command = [sys.executable, "-c", CHILD, str(n)]
    try:
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=LIMIT)
    except subprocess.TimeoutExpired:
        return {"n": n, "status": "timeout"}
    if done.returncode != 0:
        last = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"n": n, "status": f"error: {last}"}
    return {"n": n, "status": "ok", **json.loads(done.stdout)}


def medians(runs: list[dict]) -> dict:
    """Per relation, the median compute and parse time of the finished runs."""
    done = [run for run in runs if run["status"] == "ok"]
    if not done:
        return {}
    keys = ("seconds", "parse_s")
    return {
        kind: {key: statistics.median(run[kind][key] for run in done) for key in keys}
        for kind in ("zt", "pt")
    }


def wrong(run: dict) -> bool:
    """A finished run whose ``z_T`` misses the formula or a relation misses its text."""
    if run["status"] != "ok":
        return False
    return not run["zt"]["matches_formula"] or not all(run[k]["round_trips"] for k in ("zt", "pt"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "limit_s": LIMIT,
        "rounds": ROUNDS,
        "checkouts": {
            side: [{"n": n, "median": {}, "runs": []} for n in args.n]
            for side in ("parent", "change")
        },
    }
    failed = False
    for round_ in range(ROUNDS):
        order = ("parent", "change") if round_ % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            for entry in report["checkouts"][side]:
                result = run_one(checkout, entry["n"])
                label = f"round {round_ + 1}/{ROUNDS} {side} n={entry['n']}"
                print(f"{label}: {result}", file=sys.stderr)
                failed |= wrong(result)
                entry["runs"].append(result)
                entry["median"] = medians(entry["runs"])
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
