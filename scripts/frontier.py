"""Time the staircase frontier and write the timings to a ``BENCH_*.json``.

For the parent and the change checkout and each given n this computes
``z_T`` and then ``p_T`` of ``diagonal_family(n)`` under the default
guards, in a fresh child process that imports the checkout's own
``src/``.  Each relation gets its time, size and the sha256 of its
canonical string, so two checkouts can be compared byte for byte, and
``z_T`` is checked against ``diagonal_relation_formula(n)``.  Each child
gets ``LIMIT`` seconds of wall time; one that runs longer is killed and
recorded as ``timeout``.  Only the standard library is used.  Example,
with the parent commit unpacked by ``git archive`` next to the working
tree::

    python3 scripts/frontier.py --parent ../parent --change . \\
        --n 3 4 5 --out BENCH_frontier.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

LIMIT = 1500.0

CHILD = """
import hashlib, json, sys, time
from areapoly.poly import canonical_str
from areapoly.triangulation import diagonal_family
from areapoly.variety import (
    diagonal_relation_formula, parallelogram_polynomial, trapezoid_polynomial,
)

n = int(sys.argv[1])
tri = diagonal_family(n)
out = {}
for kind, compute in (("zt", trapezoid_polynomial), ("pt", parallelogram_polynomial)):
    started = time.perf_counter()
    relation = compute(tri)
    out[kind] = {
        "seconds": time.perf_counter() - started,
        "terms": len(relation.terms),
        "degree": relation.total_degree(),
        "sha256": hashlib.sha256(canonical_str(relation).encode()).hexdigest(),
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--n", type=int, nargs="+", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "limit_s": LIMIT,
        "checkouts": {},
    }
    failed = False
    for side, checkout in (("parent", args.parent), ("change", args.change)):
        runs = report["checkouts"][side] = []
        for n in args.n:
            result = run_one(checkout, n)
            print(f"{side} n={n}: {result}", file=sys.stderr)
            failed |= result["status"] == "ok" and not result["zt"]["matches_formula"]
            runs.append(result)
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
