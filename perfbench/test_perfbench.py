"""Tests of the benchmark itself: failure counting, declared metrics, speed
sampling, and that the checking workloads never reach the Groebner
engine."""

from __future__ import annotations

import copy
import functools
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


def _small(name: str, labels: set[str], reference: dict | None = None) -> list[workloads.Op]:
    """The workload's ops restricted to a few cheap ones."""
    ops = [op for op in workloads.build(name, reference) if op.label in labels]
    assert {op.label for op in ops} == labels
    return ops


@pytest.mark.parametrize(
    "name, wrong, path, right",
    [
        ("relations", "zt diagonal-0", ("relations", "diagonal-0", "zt"), "pt diagonal-0"),
        ("certify", "quotient diagonal-1", ("certify", "quotients", "diagonal-1"), "quotient diagonal-0"),
        ("oracle", "oracle-pt diagonal-0", ("relations", "diagonal-0", "pt"), "oracle-zt diagonal-0"),
    ],
)
def test_wrong_reference_counts_as_failure(name, wrong, path, right):
    reference = copy.deepcopy(workloads.load_reference())
    *parents, leaf = path
    entry = reference
    for key in parents:
        entry = entry[key]
    entry[leaf] += " + 1"
    passes = run.Passes()
    run.run_pass(_small(name, {wrong, right}, reference), random.Random(0), passes)
    assert sorted(passes.times) == sorted([wrong, right])
    assert [label for label, _ in passes.failures] == [wrong]


def test_relations_metrics_are_declared():
    labels = {"zt diagonal-0", "pt diagonal-1", "free diagonal-1"}
    passes = run.Passes()
    with passes.speed:
        run.run_pass(_small("relations", labels), random.Random(0), passes)
    assert not passes.failures
    key_ops = dict.fromkeys(workloads.KEY_OPS["relations"], "zt diagonal-0")
    metrics = run.end_to_end(key_ops, passes, [0.01])
    assert {k: unit for k, (_, unit, _) in metrics.items()} == _declared("end_to_end")
    layers, traced, _ = run.traced_phase(
        lambda: _small("relations", labels), random.Random(0), 0.0, passes.pass_seconds()
    )
    assert not traced.failures
    assert {k: unit for k, (_, unit, _) in layers.items()} == _declared("per_layer")
    # The layer metrics come from the first traced pass: one elimination per op.
    assert layers["groebner.eliminate.calls"][0] == len(labels)
    assert layers["groebner.buchberger.calls"][0] >= len(labels)


@functools.cache
def _command_result(name: str, trace: int) -> dict:
    """The last line printed by the benchmark command on a short run."""
    argv = [sys.executable, *DECLARED["command"][1:]]
    argv += ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", ["certify", "oracle"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(name, trace):
    result = _command_result(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {k: m["unit"] for k, m in result["metrics"].items()}
    assert printed == _declared("per_layer" if trace else "end_to_end")


@pytest.mark.parametrize("name", ["certify", "oracle"])
def test_checking_workloads_never_eliminate(name):
    metrics = _command_result(name, 1)["metrics"]
    assert metrics["groebner.eliminate.calls"]["value"] == 0
    assert metrics["groebner.buchberger.calls"]["value"] == 0


def test_command_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "reference.json").write_text(workloads.REFERENCE_PATH.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_speed_is_sampled_inside_a_long_op():
    meter = speed.Speedometer(interval=0.005)
    with meter:
        spent = meter.spent
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        end = time.perf_counter()
        spent = meter.spent - spent
    inside = [k for at, k in zip(meter.at, meter.kernel_s) if start < at < end]
    assert len(inside) >= 5
    assert 0 < spent < end - start
    window = [
        k for at, k in zip(meter.at, meter.kernel_s)
        if start - speed.WINDOW_S <= at <= end + speed.WINDOW_S
    ]
    assert meter.scale(start, end) == speed.REFERENCE_KERNEL_S / statistics.fmean(window)
