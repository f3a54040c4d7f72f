"""Scripts under ``scripts/``: their printed output pinned byte for byte."""

from __future__ import annotations

import importlib.util
import re
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
