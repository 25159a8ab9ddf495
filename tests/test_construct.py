"""perms.construct, the library's one construction path, gives what the CLI
gives: the certificate, rows and rescaled code of every corpus command that
writes them, byte for byte, and the same errors."""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from permcodes.cli import build_parser
from permcodes.errors import BudgetExceeded, ParameterError
from permcodes.linear import read_code_file, write_code_file
from permcodes.mds import extended_rs, reed_solomon
from permcodes.perms import (
    ResidueSubgroupSpec,
    construct,
    max_code_in_K,
    write_permutation_code,
)

CORPUS = Path(__file__).resolve().parent / "corpus"
EXPECTED = {r["argv"]: r for r in json.loads((CORPUS / "expected.json").read_text())}
# the exit-0 construct commands that write a certificate, rows or a code
WRITERS = [
    line for line, r in EXPECTED.items()
    if line.startswith("construct ") and r["exit"] == 0 and r["files"]
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _source_code(args):
    if args.source == "rs":
        return reed_solomon(args.q, args.n, args.k)
    if args.source == "xrs":
        return extended_rs(args.q, args.k)
    return read_code_file(CORPUS / args.code_file)


def test_the_corpus_has_writers_of_every_source_and_mode():
    args = [build_parser().parse_args(shlex.split(line)) for line in WRITERS]
    assert {(a.source, a.gamma) for a in args} == {
        (s, g) for s in ("rs", "xrs", "file") for g in ("identity", "exact", "greedy", "lift")
    }
    assert {a.ones_row for a in args} == {True, False}


@pytest.mark.parametrize("line", WRITERS)
def test_library_path_writes_the_cli_files(tmp_path, line):
    args = build_parser().parse_args(shlex.split(line))
    pc, cert, work = construct(
        _source_code(args), args.d, args.gamma, args.ones_row, args.seed, args.budget
    )
    rows, code = tmp_path / "rows.txt", tmp_path / "code.txt"
    write_permutation_code(pc, rows, distance=cert.verified_distance)
    write_code_file(work, code)
    got = {
        "--out": _sha(rows.read_bytes()),
        "--cert": _sha(cert.to_text().encode()),
        "--emit-code": _sha(code.read_bytes()),
    }
    want = EXPECTED[line]["files"]
    assert {flag: got[flag] for flag in want} == want


def test_ones_row_without_a_seed_is_refused():
    # refused outright, not seeded from the operating system
    with pytest.raises(ParameterError, match="^the full-weight dual search needs a seed$"):
        construct(reed_solomon(7, 6, 4), 3, gamma="identity")


def test_budget_is_the_cli_budget():
    line = "construct --source rs --q 7 --n 6 --k 4 --d 3 --seed 1 --budget 100"
    with pytest.raises(BudgetExceeded) as info:
        construct(reed_solomon(7, 6, 4), 3, seed=1, budget=100)
    stderr = f"{info.value.label}: {info.value}\n"
    assert _sha(stderr.encode()) == EXPECTED[line]["stderr"]


def test_unknown_gamma_is_refused():
    with pytest.raises(ParameterError, match="^unknown mode 'best'$"):
        construct(reed_solomon(7, 6, 4), 3, gamma="best", seed=1)
    # refused before K is enumerated: |K| = 6!^2 is past the subgroup budget
    with pytest.raises(ParameterError, match="^unknown mode 'best'$"):
        max_code_in_K(ResidueSubgroupSpec.for_params(12, 2), 3, mode="best")
