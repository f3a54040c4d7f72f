"""Scripts under ``scripts/``: their printed output pinned byte for byte."""

from __future__ import annotations

import importlib.util
import json
import re
import statistics
import subprocess
from pathlib import Path

import pytest

from areapoly.triangulation import triangulation_from_json

ROOT = Path(__file__).resolve().parents[1]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_tables_output_is_pinned(capsys):
    """Relations, restriction profiles, doubling quotients and ranks of the
    whole corpus; only the elimination time in each header is masked."""
    assert load_script("corpus_tables").main([]) == 0
    out = re.sub(r", \d+\.\d{2}s\)$", ", <time>s)", capsys.readouterr().out, flags=re.M)
    assert out == (ROOT / "tests" / "golden" / "corpus_tables.txt").read_text()


def test_equidissection_demo_output_is_pinned(capsys):
    """Rainbow certificate, corner colors and smallest 2-adic valuation of
    every corpus dissection."""
    assert load_script("equidissection_demo").main([]) == 0
    out = capsys.readouterr().out
    assert out == (ROOT / "tests" / "golden" / "equidissection_demo.txt").read_text()


def finished(value: float, side: str = "parent") -> dict:
    """A synthetic run that finished, with one metric and one digest."""
    return {
        "status": "ok",
        "correct": True,
        "attempted": 2,
        "failed": 0,
        "metrics": {"pass_s": {"value": value, "unit": "s"}},
        "digests": {"zt": {"sha256": side}},
    }


def gain(parent: list[float], change: list[float]) -> dict:
    compared = load_script("bench_compare").compare(
        [finished(v) for v in parent], [finished(v) for v in change]
    )
    return compared["pass_s"]


PARENT = [10.0 + k / 10 for k in range(10)]


def test_gain_holds_on_nine_wins_and_a_gap_past_the_parents_iqr():
    result = gain(PARENT, [9.0] * 9 + [11.0])
    assert result["change_wins"] == 9 and result["gain_holds"]
    assert result["parent"]["median"] == statistics.median(PARENT)
    # Ten wins, but medians closer than the parent's interquartile range.
    near = gain(PARENT, [v - 0.01 for v in PARENT])
    assert near["change_wins"] == 10 and not near["gain_holds"]


def test_gain_fails_on_eight_wins():
    result = gain(PARENT, [9.0] * 8 + [11.0, 11.0])
    assert result["change_wins"] == 8 and not result["gain_holds"]


def test_ties_count_for_neither_side():
    tied = PARENT[:2] + [9.0] * 8
    result = gain(PARENT, tied)
    assert result["change_wins"] == 8 and not result["gain_holds"]
    assert gain(PARENT, PARENT)["change_wins"] == 0


def test_a_pair_with_a_failed_run_is_left_out():
    bench = load_script("bench_compare")
    parent = [finished(100.0)] + [finished(v) for v in PARENT[1:]]
    change = [{"status": "timeout"}] + [finished(9.0) for _ in PARENT[1:]]
    result = bench.compare(parent, change)["pass_s"]
    assert result["parent"]["median"] == statistics.median(PARENT[1:])
    assert result["change_wins"] == 9 and result["gain_holds"]
    assert bench.compare(parent[:2], change[:2]) == {}


def test_digests_that_differ_by_side_exit_1(tmp_path, monkeypatch):
    bench = load_script("bench_compare")
    out = tmp_path / "bench.json"
    argv = ["--parent", str(tmp_path), "--change", str(ROOT), "--workload", "frontier-9"]
    argv += ["--seed", "0", "--out", str(out)]
    monkeypatch.setattr(bench, "run_once", lambda checkout, *_: finished(1.0, checkout.name))
    assert bench.main(argv) == 1
    runs = json.loads(out.read_text())["workloads"]["frontier-9"]["runs"]
    assert len(runs["parent"]) == len(runs["change"]) == bench.PAIRS
    monkeypatch.setattr(bench, "run_once", lambda *_: finished(1.0))
    assert bench.main(argv) == 0


def test_frontier_pairs_parse_back_with_equal_digests(tmp_path, monkeypatch):
    """The same checkout on both sides: every run kept, medians per side,
    and each relation read back from its canonical text.  Diagonal-0 takes
    well under a second, so each child runs each relation five times."""
    bench = load_script("bench_compare")
    monkeypatch.setattr(bench, "PAIRS", 2)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "frontier-0"]
    assert bench.main([*argv, "--seed", "0", "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["workloads"]["frontier-0"]
    assert set(entry) == {"failed", "attempted", "metrics", "runs"}
    digests = set()
    for side, runs in entry["runs"].items():
        assert len(runs) == 2
        for run in runs:
            assert run["status"] == "ok" and run["correct"] and run["attempted"] == 2
            assert run["runs"] == {"zt": 5, "pt": 5}
            digests.add(json.dumps(run["digests"], sort_keys=True))
            metrics = ("_s", "_text_s", "_parse_s")
            assert set(run["metrics"]) == {k + m for k in ("zt", "pt") for m in metrics}
        times = [run["metrics"]["zt_s"]["value"] for run in runs]
        assert entry["metrics"]["zt_s"][side]["median"] == statistics.median(times)
    assert len(digests) == 1


def test_each_child_reads_bytecode_from_a_fresh_empty_cache(monkeypatch):
    """``PYTHONPYCACHEPREFIX`` is a new empty directory for every child and
    is gone after it, so no side reuses bytecode an earlier run wrote."""
    bench = load_script("bench_compare")
    caches = []

    def child(command, cwd, env, **_):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        caches.append((cache, sorted(cache.iterdir())))
        (cache / "stale.pyc").write_bytes(b"")
        line = json.dumps(finished(1.0))
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench.subprocess, "run", child)
    for workload in ("relations", "frontier-0"):
        assert bench.run_once(ROOT, workload, 0, 1.0)["status"] == "ok"
    assert [files for _, files in caches] == [[], []]
    assert caches[0][0] != caches[1][0]
    assert not any(cache.exists() for cache, _ in caches)


def test_a_child_past_the_limit_is_recorded_as_timeout(tmp_path, monkeypatch):
    bench = load_script("bench_compare")
    monkeypatch.setattr(bench, "PAIRS", 1)
    monkeypatch.setattr(bench, "LIMIT", 0.01)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "frontier-0"]
    assert bench.main([*argv, "--seed", "0", "--out", str(out)]) == 1
    entry = json.loads(out.read_text())["workloads"]["frontier-0"]
    assert entry["runs"] == {"parent": [{"status": "timeout"}], "change": [{"status": "timeout"}]}
    assert entry["metrics"] == {}


@pytest.mark.parametrize("name", ["flip10", "f4s5", "f4s9"])
def test_named_frontier_inputs_are_valid_triangulations(name):
    spec = load_script("bench_compare").frontier_input(name)
    tri = triangulation_from_json(spec["triangulation"]).require_valid()
    half = len(tri.triangles) // 2
    assert tri.triangle_names == tuple(f"{s}{i}" for s in "AB" for i in range(1, half + 1))


def test_a_named_frontier_input_runs_one_relation(tmp_path, monkeypatch):
    """``f4s9`` computes ``z_T`` alone, whose digest was taken before the
    pair key weighed the eliminated block."""
    bench = load_script("bench_compare")
    monkeypatch.setattr(bench, "PAIRS", 1)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "frontier-f4s9"]
    assert bench.main([*argv, "--seed", "0", "--out", str(out)]) == 0
    runs = json.loads(out.read_text())["workloads"]["frontier-f4s9"]["runs"]
    for run in runs["parent"] + runs["change"]:
        assert run["correct"] and run["attempted"] == 1 and set(run["runs"]) == {"zt"}
        assert run["digests"] == {
            "zt": {
                "terms": 540,
                "degree": 5,
                "sha256": "a7209361baeaedc93e0546930efd89c24d97b4ed9d8442f23581840bb0b9a514",
            }
        }


def test_an_unknown_frontier_input_is_refused(tmp_path, capsys):
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "frontier-flip11"]
    with pytest.raises(SystemExit) as raised:
        load_script("bench_compare").main([*argv, "--seed", "0", "--out", str(tmp_path / "b")])
    assert raised.value.code == 2
    assert "unknown frontier input 'flip11'" in capsys.readouterr().err
