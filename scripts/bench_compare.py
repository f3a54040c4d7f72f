"""Paired benchmark runs of two checkouts, written to a ``BENCH_*.json``.

Run from anywhere, with two checkouts of the repository (for instance the
parent commit unpacked with ``git archive`` and the working tree)::

    python3 scripts/bench_compare.py --parent ../parent --change . \\
        --workload relations --seed 11 --out BENCH_label.json

Each of ten pairs runs ``perfbench/run.py`` once in each checkout with
the same workload and seed, untraced and for the ``run_seconds`` that the
change's ``BENCHMARK.json`` declares, alternating which side goes first.
Only the standard library is used.  The output keeps every run's JSON
line and, per workload and end-to-end metric, each side's median and
quartiles, the pairs the change won (ties count for neither side), and
whether the gain rule holds: the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range.  Lower is better for every metric the benchmark reports.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
TRACE = 0


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(TRACE),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[dict], change: list[dict]) -> dict:
    out = {}
    for name in parent[0]["metrics"]:
        before = [run["metrics"][name]["value"] for run in parent]
        after = [run["metrics"][name]["value"] for run in change]
        wins = sum(a < b for a, b in zip(after, before))
        spread_before, spread_after = quartiles(before), quartiles(after)
        gap = spread_before["median"] - spread_after["median"]
        out[name] = {
            "unit": parent[0]["metrics"][name]["unit"],
            "parent": spread_before,
            "change": spread_after,
            "change_over_parent": spread_after["median"] / spread_before["median"],
            "change_wins": wins,
            "gain_holds": wins * 10 >= 9 * len(before)
            and gap > spread_before["q3"] - spread_before["q1"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((args.change / "BENCHMARK.json").read_text())["run_seconds"]

    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": TRACE,
        "pairs": PAIRS,
        "workloads": {},
    }
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, workload, args.seed, seconds))
                print(f"{workload} pair {pair + 1}/{PAIRS}: {side} done", file=sys.stderr)
        report["workloads"][workload] = {
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
            "metrics": compare(runs["parent"], runs["change"]),
            "runs": runs,
        }
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
