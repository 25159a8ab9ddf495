"""Run the CLI corpus in-process and record what each command produced.

``commands.txt`` holds one argv per line (shell quoting; blank lines and
``#`` lines are skipped).  Every command runs through ``cli.main`` in one
scratch directory that holds a copy of ``in/``, so argv paths are relative
to it.  For each command the record keeps the exit code and the sha256 of
stdout, of stderr and of every file named by --out, --cert or --emit-code
(null when the command left none; each such file is removed before its
command runs).  Later commands may read files that earlier ones wrote.

    python tests/corpus/regen.py    # rewrite expected.json from this tree

tests/test_corpus.py runs the same corpus and compares it with
expected.json.  A change that alters a digest on purpose regenerates the
file and names every changed command.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

CORPUS = Path(__file__).resolve().parent
EXPECTED = CORPUS / "expected.json"
OUTPUT_FLAGS = ("--out", "--cert", "--emit-code")


def commands() -> list[str]:
    lines = (CORPUS / "commands.txt").read_text().splitlines()
    return [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(line: str) -> tuple[dict, float]:
    """One command's record and its wall time; the cwd is the scratch dir."""
    from permcodes.cli import main

    argv = shlex.split(line)
    outputs = {
        flag: argv[i + 1]
        for i, flag in enumerate(argv[:-1])
        if flag in OUTPUT_FLAGS
    }
    for path in outputs.values():
        Path(path).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    elapsed = time.perf_counter() - start
    record = {
        "argv": line,
        "exit": rc,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": {
            flag: _sha(Path(path).read_bytes()) if Path(path).exists() else None
            for flag, path in outputs.items()
        },
    }
    return record, elapsed


def run_corpus(workdir: Path) -> list[tuple[dict, float]]:
    """(record, seconds) per command, in corpus order, run inside workdir."""
    shutil.copytree(CORPUS / "in", Path(workdir) / "in")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [run_command(line) for line in commands()]
    finally:
        os.chdir(cwd)


def main() -> None:
    sys.path.insert(0, str(CORPUS.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        results = run_corpus(Path(tmp))
    for record, elapsed in results:
        print(f"{elapsed:7.3f}s  exit {record['exit']}  {record['argv']}")
    print(f"{len(results)} commands, {sum(t for _, t in results):.2f}s")
    records = [record for record, _ in results]
    EXPECTED.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
