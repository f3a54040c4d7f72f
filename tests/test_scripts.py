"""Scripts under ``scripts/``: their printed output pinned byte for byte."""

from __future__ import annotations

import importlib.util
import json
import re
import statistics
from pathlib import Path

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


def test_frontier_runs_alternating_rounds_and_parses_back(tmp_path):
    """The same checkout on both sides: every round kept, medians per side,
    and each relation read back from its canonical text."""
    frontier = load_script("frontier")
    out = tmp_path / "frontier.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--n", "0", "--out", str(out)]
    assert frontier.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["rounds"] == frontier.ROUNDS
    digests = set()
    for side in ("parent", "change"):
        (entry,) = report["checkouts"][side]
        assert entry["n"] == 0 and len(entry["runs"]) == frontier.ROUNDS
        for run in entry["runs"]:
            assert run["status"] == "ok" and run["zt"]["matches_formula"]
            for kind in ("zt", "pt"):
                assert run[kind]["round_trips"] and run[kind]["parse_s"] >= 0
                digests.add((kind, run[kind]["sha256"]))
        for kind in ("zt", "pt"):
            times = [run[kind]["seconds"] for run in entry["runs"]]
            assert entry["median"][kind]["seconds"] == statistics.median(times)
    assert len(digests) == 2
