"""The committed CLI corpus gives the recorded bytes: exit code, stdout,
stderr and every --out, --cert and --emit-code file of each command."""

import importlib.util
import json
from pathlib import Path

CORPUS = Path(__file__).resolve().parent / "corpus"


def _regen():
    spec = importlib.util.spec_from_file_location("corpus_regen", CORPUS / "regen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_matches_expected(tmp_path):
    regen = _regen()
    want = json.loads(regen.EXPECTED.read_text())
    results = regen.run_corpus(tmp_path)
    got = [record for record, _ in results]
    assert [r["argv"] for r in got] == [r["argv"] for r in want]
    changed = [g["argv"] for g, w in zip(got, want) if g != w]
    assert changed == []
