"""Benchmark of the areapoly area-relation engine.

Run from the repository root::

    python3 perfbench/run.py --workload relations --seed 0 --seconds 30 --trace 0

One process, one thread, the public API of ``areapoly`` from ``src/`` and
the default ``GuardConfig``.  The workloads (``relations``, ``certify``,
``oracle``) are described in :mod:`workloads`.  The seed drives the order
of the ops in every pass, the random drawings and the oracle's samples.

A run makes passes over the workload's op list until ``--seconds`` have
gone by; the pass under way is finished, so a run takes at least one pass.
The workload is set up (the package re-imported, inputs and references
built) several times before the first pass and again between passes over
the run.  Each op's output is checked against ``reference.json`` outside
the timed region; an exception, a guard trip or a wrong output counts as
a failed op.

Times are reported in seconds at a fixed reference speed: an interval
timer runs a fixed kernel every few tens of milliseconds, also in the
middle of an op (see :mod:`speed`); the kernel's time is taken off the
op's wall time, and the rest is scaled by the kernel's mean time during
the op.  Every timing metric is built from medians of those scaled times
(see :func:`end_to_end`); the op table prints the median wall times next
to them.  Every op starts after a full garbage collection, and the
set-up's objects are frozen, so the collections inside an op repeat from
pass to pass.

With ``--trace 0`` no wrapper is installed and the run reports the
end-to-end metrics.  With ``--trace 1`` the run spends half of
``--seconds`` on untraced passes and half on traced ones, after
installing the span wrappers of :mod:`spans` and setting up once more; it
reports the per-layer metrics of that set-up and the first traced pass,
and the tracing overhead (traced minus untraced pass, each at its median
scaled op times).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
stamp the run and list every op's times next to work counts that repeat
exactly from run to run.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import spans
import workloads
from speed import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP = "(set-up)"
SETUP_FIRST = 3
SETUP_SPACING = 10
TAIL_PERCENT = 90

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "key1_s": "s",
    "key2_s": "s",
    "key3_s": "s",
}

TRACE_UNITS = {
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict[str, str]:
    return {**spans.metric_units(), **TRACE_UNITS}


@dataclass
class Passes:
    """Timings, output counts and failures of the passes of one phase.

    Each op's time (wall time less the speed samples that fell into it)
    is kept per op label in a float array, next to the start and end of
    its timed region, so that :meth:`scaled` can put it at the reference
    speed of ``speed``'s samples.  Set-ups are kept the same way.
    """

    count: int = 0
    times: dict[str, array] = field(default_factory=dict)
    bounds: dict[str, array] = field(default_factory=dict)
    counts: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    speed: Speedometer = field(default_factory=Speedometer)

    def record(self, label: str, start: float, end: float, spent: float) -> None:
        """Record a timed region from ``start`` to ``end`` into which
        ``spent`` seconds of speed samples fell."""
        self.times.setdefault(label, array("d")).append(end - start - spent)
        self.bounds.setdefault(label, array("d")).extend((start, end))

    def scaled(self, label: str) -> list[float]:
        """The op's times in seconds at the reference speed."""
        bounds = self.bounds[label]
        return [
            elapsed * self.speed.scale(bounds[2 * i], bounds[2 * i + 1])
            for i, elapsed in enumerate(self.times[label])
        ]

    def setups(self) -> list[float]:
        return self.scaled(SETUP) if SETUP in self.times else []

    def latency(self) -> dict[str, float]:
        """Each op label's median scaled time."""
        return {label: statistics.median(self.scaled(label)) for label in self.times}

    def one_pass(self) -> list[float]:
        """The latencies of one pass over the op list: every pass runs every
        op once, so a label takes its sample count over the pass count of
        the places in a pass."""
        latency = self.latency()
        return [
            latency[label]
            for label, times in self.times.items()
            if label != SETUP
            for _ in range(len(times) // self.count)
        ]

    def pass_seconds(self) -> float:
        """One pass over the op list with every op at its latency."""
        return sum(self.one_pass())


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "areapoly" or m.startswith("areapoly.")]:
        del sys.modules[name]


def timed_setup(build: Callable[[], list[workloads.Op]], into: Passes) -> list[workloads.Op]:
    """Set the workload up from a fresh import of the package, recording
    the time it took in ``into``.

    The previous copy of the package is collected first, so neither its
    memory nor its collection falls into the next set-up.  The new set-up's
    objects are frozen after it, so the collections that :func:`run_pass`
    makes between ops, and those inside ops, do not walk them.
    """
    gc.unfreeze()
    _purge_package()
    gc.collect()
    spent = into.speed.spent
    start = time.perf_counter()
    ops = build()
    end = time.perf_counter()
    into.record(SETUP, start, end, into.speed.spent - spent)
    gc.collect()
    gc.freeze()
    return ops


def run_pass(
    ops: list[workloads.Op],
    rng: random.Random,
    into: Passes,
    tracer: spans.Tracer | None = None,
) -> None:
    """One pass over the op list, in an order drawn from ``rng``.

    Every op starts after a full collection, so that the collections
    inside it depend on the op alone, not on what ran before it.
    """
    clock = time.perf_counter
    speed = into.speed
    for position, op in enumerate(rng.sample(ops, len(ops))):
        seed = rng.randrange(1 << 31)
        if tracer is not None:
            tracer.op = (position, op.label)
        error = None
        gc.collect()
        spent = speed.spent
        start = clock()
        try:
            out = op.run(seed)
        except Exception as exc:  # a failed op is counted, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        spent = speed.spent - spent
        if tracer is not None:
            tracer.op = None
        if error is None:
            try:
                if not op.check(out):
                    error = "output differs from the reference"
            except Exception as exc:  # an output of the wrong shape is a wrong output
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        into.attempted += 1
        into.record(op.label, start, end, spent)
        if error is not None:
            into.failures.append((op.label, f"seed {seed}: {error}"))
        elif op.label not in into.counts:
            into.counts[op.label] = workloads.output_counts(out)
    into.count += 1


def run_passes(
    build: Callable[[], list[workloads.Op]],
    rng: random.Random,
    seconds: float,
) -> tuple[list[float], Passes]:
    """Set-ups and passes until ``seconds`` have gone by, finishing the pass
    under way; returns the scaled set-up times and the passes.

    The workload is set up ``SETUP_FIRST`` times before the first pass and
    again before any pass that starts ``seconds / SETUP_SPACING`` or more
    after the previous set-up, so set-up times, like op times, are sampled
    over the whole run.
    """
    out = Passes()
    with out.speed:
        for _ in range(SETUP_FIRST - 1):
            timed_setup(build, out)
        ops = timed_setup(build, out)
        start = last_setup = time.perf_counter()
        while not out.count or time.perf_counter() - start < seconds:
            if time.perf_counter() - last_setup >= seconds / SETUP_SPACING:
                del ops  # so that timed_setup can collect this copy of the package
                ops = timed_setup(build, out)
                last_setup = time.perf_counter()
            run_pass(ops, rng, out)
    return out.setups(), out


def end_to_end(key_ops: dict[str, str], passes: Passes, setup_times: list[float]) -> dict:
    """The end-to-end metrics of the untraced passes.

    Every timing is built from times scaled to the reference speed (see
    :mod:`speed`): an op's latency is its median scaled time in the run,
    pass_s is one pass over the op list at those latencies, op_p50_ms and
    op_tail_ms are the 50th and ``TAIL_PERCENT``th percentiles of the op
    latencies of one pass, and setup_s is the median scaled set-up.  The
    tail is a fixed percentile of the op list, so that it does not jump
    from one op to another as the number of passes in a run changes.
    """
    latency = passes.latency()
    one_pass = sorted(passes.one_pass())
    beyond = passes.attempted * (100 - TAIL_PERCENT) // 100
    values = {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(one_pass),
        "op_p50_ms": 1000 * statistics.median(one_pass),
        "op_tail_ms": 1000 * statistics.quantiles(one_pass, n=100, method="inclusive")[TAIL_PERCENT - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups, scaled",
        "pass_s": f"each op at its median of {passes.count} passes, scaled",
        "op_p50_ms": f"of the {len(one_pass)} ops of a pass",
        "op_tail_ms": f"p{TAIL_PERCENT} of the {len(one_pass)} ops of a pass;"
        f" about {beyond} of {passes.attempted} op runs beyond it",
    }
    for metric, label in key_ops.items():
        values[metric] = latency[label]
        notes[metric] = f"{label}, median of {len(passes.times[label])}, scaled"
    return {name: (values[name], END_TO_END_UNITS[name], notes.get(name, "")) for name in values}


def traced_phase(
    build: Callable[[], list[workloads.Op]],
    rng: random.Random,
    seconds: float,
    untraced_pass_s: float,
) -> tuple[dict, Passes, dict]:
    """A traced set-up and traced passes for ``seconds``; returns the
    per-layer metrics, the passes and the work counts of each op.

    The per-layer metrics and work counts come from the set-up and the
    first pass, made without speed samples so that no kernel run falls
    into a span; the later passes only time the traced pass for the
    overhead, which compares passes at median scaled op times as
    :func:`end_to_end` does.
    """
    tracer = spans.Tracer()
    saved = spans.install(tracer, workloads.load_modules())
    first, traced = Passes(), Passes()
    try:
        tracer.op = "setup"
        ops = build()
        start = time.perf_counter()
        run_pass(ops, rng, first, tracer)
        recorded = list(tracer.spans)
        with traced.speed:
            while not traced.count or time.perf_counter() - start < seconds:
                tracer.spans.clear()
                run_pass(ops, rng, traced, tracer)
    finally:
        spans.uninstall(saved)
    traced.attempted += first.attempted
    traced.failures[:0] = first.failures
    layers = spans.layer_metrics(recorded)
    traced_pass_s = traced.pass_seconds()
    layers["trace.untraced_pass_s"] = untraced_pass_s
    layers["trace.traced_pass_s"] = traced_pass_s
    layers["trace.overhead_s"] = traced_pass_s - untraced_pass_s
    units = per_layer_units()
    metrics = {metric: (value, units[metric], "") for metric, value in layers.items()}
    return metrics, traced, spans.op_counts(recorded)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(args: argparse.Namespace, nproc: int) -> str:
    return (
        f"# python={platform.python_version()} nproc={nproc} cpu={_cpu_model()!r} "
        f"seed={args.seed} commit={_commit()}"
    )


def op_table(passes: Passes, counts: dict[str, dict]) -> list[str]:
    """Each op's median wall and scaled times next to its work counts."""
    lines = []
    latency = passes.latency()
    for label in sorted(passes.times):
        times = passes.times[label]
        text = " ".join(
            f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in counts.get(label, {}).items()
        )
        lines.append(
            f"  {label:<34} n={len(times):<4} wall_ms={1000 * statistics.median(times):<10.3f}"
            f" scaled_ms={1000 * latency[label]:<10.3f} {text}".rstrip()
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "areapoly" / "__init__.py").is_file():
        print(f"error: no areapoly sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    rng = random.Random(args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    build = functools.partial(workloads.build, args.workload)
    setup_times, passes = run_passes(build, rng, budget)
    attempted, failures = passes.attempted, list(passes.failures)
    if args.trace:
        metrics, traced, counts = traced_phase(build, rng, budget, passes.pass_seconds())
        attempted += traced.attempted
        failures += traced.failures
    else:
        metrics = end_to_end(workloads.KEY_OPS[args.workload], passes, setup_times)
        counts = passes.counts

    print(f"# areapoly benchmark: workload={args.workload} seconds={args.seconds:g} trace={args.trace}")
    print(stamp(args, len(os.sched_getaffinity(0))))
    for item in workloads.LEFT_OUT[args.workload]:
        print(f"# left out: {item}")
    print("# ops:" + (" untraced times, traced-pass counts" if args.trace else ""))
    for line in op_table(passes, counts):
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    failed = len(failures)
    print(f"ops attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6g}")
    for label, message in failures[:20]:
        print(f"failed: {label}: {message}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
