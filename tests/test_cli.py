"""Command line behavior: output shapes, determinism, exit codes."""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from permcodes import bounds, cli, errors, perms
from permcodes.cli import build_parser, main
from permcodes.linear import write_code_file
from permcodes.mds import reed_solomon
from permcodes.perms import read_permutation_code


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_no_subcommand_is_usage_error(capsys):
    rc, _, err = run(capsys)
    assert rc == 1
    assert "subcommand" in err


def test_unknown_flag_is_usage_error(capsys):
    rc, _, err = run(capsys, "table", "--d", "6", "--frobnicate")
    assert rc == 1


def test_table_csv_shape(capsys):
    rc, out, _ = run(capsys, "table", "--d", "6", "--n-min", "9", "--n-max", "11")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,mds,mds+1,old"
    assert lines[1].startswith("9,")
    # the best of the marked columns carries the marker
    assert "56*" in lines[1]
    # inapplicable cells are blank
    assert lines[3] == "11,2727*,,2727*"


def test_table_markdown(capsys):
    rc, out, _ = run(
        capsys, "table", "--d", "6", "--n-min", "10", "--n-max", "10",
        "--format", "markdown",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "| n | mds | mds+1 | old |"
    assert lines[2] == "| 10 | 248 | **277** | 248 |"


def test_table_column_selection(capsys):
    rc, out, _ = run(
        capsys, "table", "--d", "4", "--n-min", "6", "--n-max", "6",
        "--columns", "gv,sphere,singleton",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,gv,sphere,singleton"
    # unmarked columns never carry the marker
    assert "*" not in lines[1]


def test_table_rejects_unknown_column(capsys):
    rc, _, err = run(capsys, "table", "--d", "6", "--n-min", "9", "--n-max", "9",
                     "--columns", "gv,nope")
    assert (rc, err) == (1, "usage error: unknown column 'nope'; "
                            "choose from gv, sphere, singleton, old, mds, mds+1\n")


def test_table_rejects_inverted_range(capsys):
    rc, _, err = run(capsys, "table", "--d", "6", "--n-min", "9", "--n-max", "8")
    assert rc == 1


def test_table_rejects_small_distance(capsys):
    rc, _, err = run(capsys, "table", "--d", "2", "--n-min", "9", "--n-max", "9")
    assert rc == 1 and "--d" in err


def test_table_deterministic(capsys):
    args = ("table", "--d", "5", "--n-min", "8", "--n-max", "14")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_table_out_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    rc, out, _ = run(capsys, "table", "--d", "6", "--n-min", "9", "--n-max", "10",
                     "--out", str(target))
    assert rc == 0 and out == ""
    assert target.read_text().startswith("n,")


def test_construct_verify_round_trip(tmp_path, capsys):
    pc_path = tmp_path / "pc.txt"
    cert_path = tmp_path / "cert.txt"
    rc, out, _ = run(
        capsys, "construct", "--d", "3", "--q", "7", "--n", "6", "--k", "4",
        "--source", "rs", "--gamma", "identity", "--seed", "7",
        "--out", str(pc_path), "--cert", str(cert_path),
    )
    assert rc == 0
    assert "floor=103" in out
    n, size, d, rows = read_permutation_code(pc_path)
    assert n == 6 and size == len(rows) and size >= 103 and d >= 3
    cert = cert_path.read_text()
    assert "guaranteed_floor: 103" in cert
    assert "ones_row: true" in cert

    rc, out, _ = run(capsys, "verify", str(pc_path), "--d", "3")
    assert rc == 0
    assert out.strip().endswith("PASS")


def test_construct_emit_code(tmp_path, capsys):
    code_path = tmp_path / "code.txt"
    rc, _, _ = run(
        capsys, "construct", "--d", "4", "--q", "5", "--k", "3",
        "--source", "xrs", "--gamma", "identity", "--seed", "5",
        "--emit-code", str(code_path),
    )
    assert rc == 0
    text = code_path.read_text()
    assert text.startswith("5 6 3")


@pytest.mark.parametrize("source,stdout,emitted", [
    # the full-weight dual word comes from the random route
    (["--q", "5", "--k", "3", "--source", "xrs", "--gamma", "identity", "--seed", "5"],
     "constructed: n=6 q=5 k=3 d=4 size=24 floor=15 distance=4 syndrome=1 3 3\n",
     "5 6 3\n3 1 2 1 3 0\n0 1 4 3 2 0\n0 1 3 4 3 4\n"),
    # k > q - 2: the word comes from the exhaustive walk of the dual
    (["--source", "file", "--seed", "1"],
     "constructed: n=6 q=3 k=2 d=4 size=16 floor=14 distance=4 syndrome=0 0 0 0\n",
     "3 6 2\n2 0 2 1 2 2\n0 2 2 2 2 1\n"),
])
def test_construct_frozen_output_and_emitted_code(tmp_path, capsys, source, stdout, emitted):
    # values computed by the earlier implementation; the emitted generator is
    # the input rescaled by the dual word, so it pins the word's sign too
    if "file" in source:
        code_path = tmp_path / "code.txt"
        code_path.write_text("3 6 2\n1 0 2 1 2 1\n0 1 2 2 2 2\n")
        source = source + ["--code-file", str(code_path)]
    emit_path = tmp_path / "emitted.txt"
    rc, out, _ = run(capsys, "construct", "--d", "4", *source, "--emit-code", str(emit_path))
    assert rc == 0
    assert out == stdout
    assert emit_path.read_text() == emitted


def test_construct_infeasible_distance(capsys):
    rc, _, err = run(capsys, "construct", "--d", "5", "--q", "7", "--n", "6",
                     "--k", "4", "--source", "rs", "--seed", "1")
    assert rc == 2
    assert "distance" in err


def test_construct_needs_seed_for_ones_row(capsys):
    rc, _, err = run(capsys, "construct", "--d", "3", "--q", "7", "--n", "6",
                     "--k", "4", "--source", "rs")
    assert rc == 1
    assert "seed" in err
    # asked before gamma is built, so greedy's own seed message is not reached
    got = run(capsys, "construct", "--d", "3", "--q", "7", "--n", "6", "--k", "4",
              "--source", "rs", "--gamma", "greedy")
    assert got == (1, "", "usage error: --seed is required (full-weight dual search)\n")


def test_construct_flag_usage_error_comes_before_the_distance_check(capsys):
    # the [6,4,3]_7 code is below --d 5, but the missing --seed is decided
    # by the flags alone, before the code is built
    got = run(capsys, "construct", "--d", "5", "--q", "7", "--n", "6", "--k", "4",
              "--source", "rs")
    assert got == (1, "", "usage error: --seed is required (full-weight dual search)\n")
    got = run(capsys, "construct", "--d", "5", "--q", "7", "--n", "6", "--k", "4",
              "--source", "rs", "--gamma", "greedy", "--no-ones-row")
    assert got == (1, "", "usage error: --gamma greedy requires --seed\n")


def test_construct_exits_3_when_the_bucket_check_fails(tmp_path, capsys, monkeypatch):
    # the bucket's distance check reads d - 1, while the one-row gamma' of
    # --gamma identity still reads inf: only the bucket check fails
    real = perms.code_min_distance
    monkeypatch.setattr("permcodes.perms.code_min_distance",
                        lambda rows, d, **kw: real(rows, d, **kw) if len(rows) < 2 else d - 1)
    pc_path, cert_path = tmp_path / "pc.txt", tmp_path / "c.cert"
    got = run(capsys, "construct", "--d", "3", "--q", "7", "--n", "6", "--k", "4",
              "--source", "rs", "--gamma", "identity", "--seed", "7",
              "--out", str(pc_path), "--cert", str(cert_path))
    assert got == (3, "", "verification failed: bucket distance 2 fell below the guaranteed 3\n")
    assert not pc_path.exists() and not cert_path.exists()


def test_construct_budget_exit(capsys):
    rc, _, err = run(capsys, "construct", "--d", "3", "--q", "7", "--n", "6",
                     "--k", "4", "--source", "rs", "--seed", "1",
                     "--budget", "100")
    assert rc == 4


def test_construct_default_budget_refuses_a_large_sweep(capsys):
    # the library's default of 50,000 translates holds without --budget
    rc, out, err = run(capsys, "construct", "--source", "rs", "--q", "9", "--n", "9",
                       "--k", "5", "--d", "5", "--gamma", "identity", "--seed", "1")
    assert (rc, out) == (4, "")
    assert err == "budget exceeded: sweep of 362880 translates exceeds budget 50000\n"


def test_construct_beyond_ten_points(tmp_path, capsys):
    # n = 11 over GF(3): 11!/|K| = 11,550 cosets, within the default budget
    code_path = tmp_path / "code.txt"
    pc_path = tmp_path / "pc.txt"
    rc, _, _ = run(capsys, "code-search", "--n", "11", "--k", "6", "--d", "4",
                   "--q", "3", "--seed", "1", "--out", str(code_path))
    assert rc == 0
    rc, out, _ = run(capsys, "construct", "--source", "file", "--code-file",
                     str(code_path), "--d", "4", "--gamma", "identity",
                     "--seed", "1", "--out", str(pc_path))
    assert rc == 0
    assert "n=11" in out and "floor=143" in out
    rc, out, _ = run(capsys, "verify", str(pc_path), "--d", "4")
    assert rc == 0
    assert out.strip().endswith("PASS")


def test_construct_finds_the_ones_word_of_a_long_repetition_code(tmp_path, capsys):
    # the dual of [18,1]_2 has 2^17 words, but the one full-weight candidate
    # is the all-ones word, which is in it
    p = tmp_path / "rep.txt"
    p.write_text("2 18 1\n" + " ".join(["1"] * 18) + "\n")
    rc, out, err = run(capsys, "construct", "--source", "file", "--code-file", str(p),
                       "--d", "18", "--gamma", "identity", "--seed", "1")
    assert (rc, err) == (0, "")
    assert out == (
        "constructed: n=18 q=2 k=1 d=18 size=2 floor=1 distance=18 "
        "syndrome=1 0 0 0 0 0 0 0 0 1 1 1 1 1 1 1 1\n"
    )


@pytest.mark.parametrize(
    "gamma, rc, err",
    [
        ("lift", 2, "infeasible: class (2, 4, 6, 8, 10, 12, 14, 16) has size 8; "
                    "subgroup is not (S_2)^r\n"),
        ("greedy", 4, "budget exceeded: |K| = 14631321600 exceeds budget 100000\n"),
        ("exact", 4, "budget exceeded: |K| = 14631321600 is too large for exact "
                     "clique search\n"),
        ("identity", 2, "infeasible: no full-weight dual codeword found; "
                        "construct without the ones row\n"),
    ],
    ids=["lift", "greedy", "exact", "identity"],
)
def test_construct_builds_gamma_before_the_dual_search(tmp_path, capsys, gamma, rc, err):
    # the all-ones word is the only full-weight candidate over GF(2), and 17
    # ones sum to 1, so no dual word works; every mode but identity fails on
    # n, q and d alone, and says so instead of pointing at the ones row
    p = tmp_path / "rep.txt"
    p.write_text("2 17 1\n" + " ".join(["1"] * 17) + "\n")
    got = run(capsys, "construct", "--source", "file", "--code-file", str(p),
              "--d", "17", "--seed", "3", "--gamma", gamma)
    assert got == (rc, "", err)


def test_construct_rs_needs_params(capsys):
    rc, _, err = run(capsys, "construct", "--d", "3", "--source", "rs", "--seed", "1")
    assert rc == 1


def test_construct_file_source_flag_mismatch(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("5 3 1\n1 2 3\n")
    rc, _, err = run(capsys, "construct", "--d", "1", "--source", "file",
                     "--code-file", str(p), "--q", "7", "--seed", "1")
    assert rc == 1 and "contradicts" in err


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "/nonexistent/path.txt")
    assert rc == 1


def test_verify_detects_distance_lie(tmp_path, capsys):
    p = tmp_path / "lie.txt"
    p.write_text("6 2 3\n1 2 3 4 5 6\n1 2 3 4 6 5\n")
    rc, out, _ = run(capsys, "verify", str(p))
    assert rc == 3
    assert "FAIL" in out


def test_verify_detects_duplicates(tmp_path, capsys):
    p = tmp_path / "dup.txt"
    p.write_text("3 2 3\n1 2 3\n1 2 3\n")
    rc, out, _ = run(capsys, "verify", str(p))
    assert rc == 3
    assert "duplicate" in out


def test_verify_detects_size_mismatch(tmp_path, capsys):
    p = tmp_path / "short.txt"
    p.write_text("3 2 3\n1 2 3\n")
    rc, out, _ = run(capsys, "verify", str(p))
    assert rc == 3


def test_verify_accepts_inf_header(tmp_path, capsys):
    p = tmp_path / "inf.txt"
    p.write_text("3 1 inf\n1 2 3\n")
    rc, out, _ = run(capsys, "verify", str(p))
    assert rc == 0


def test_verify_required_distance(tmp_path, capsys):
    p = tmp_path / "weak.txt"
    p.write_text("6 2 2\n1 2 3 4 5 6\n1 2 3 4 6 5\n")
    rc, out, _ = run(capsys, "verify", str(p))
    assert rc == 0  # header honest
    rc, out, _ = run(capsys, "verify", str(p), "--d", "4")
    assert rc == 3  # but too weak for the caller


def test_verify_budget_counts_projection_keys(tmp_path, capsys):
    p = tmp_path / "pc.txt"
    p.write_text("4 3 2\n1 2 3 4\n2 1 3 4\n1 2 4 3\n")
    rc, out, err = run(capsys, "verify", str(p), "--budget", "2")
    assert rc == 4 and out == "" and "budget exceeded" in err
    rc, out, _ = run(capsys, "verify", str(p), "--budget", "6")
    assert rc == 0 and out.endswith("distance: 2\nPASS\n")


@pytest.mark.parametrize("cmd,flag,value", [
    ("construct", "--budget", "0"), ("construct", "--budget", "-1"),
    ("verify", "--budget", "0"), ("verify", "--budget", "-1"),
    ("code-search", "--budget", "0"), ("code-search", "--trials", "0"),
    ("code-search", "--trials", "-5"), ("construct", "--budget", "many"),
])
def test_budget_and_trials_must_be_positive_integers(tmp_path, capsys, cmd, flag, value):
    pc = tmp_path / "pc.txt"
    pc.write_text("4 3 2\n1 2 3 4\n2 1 3 4\n1 2 4 3\n")
    base = {"construct": ["--d", "3", "--q", "7", "--n", "6", "--k", "4", "--seed", "7"],
            "verify": [str(pc)],
            "code-search": ["--n", "6", "--k", "2", "--d", "4", "--q", "4", "--seed", "3"]}
    rc, out, err = run(capsys, cmd, *base[cmd], flag, value)
    want = "invalid int value: 'many'" if value == "many" else f"must be at least 1, got {value}"
    assert (rc, out, err) == (1, "", f"usage error: argument {flag}: {want}\n")


def test_compare_new_vs_old(capsys):
    rc, out, err = run(capsys, "compare", "--mode", "new-vs-old",
                       "--n", "10,11,12", "--d", "6")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,ratio,envelope,ratio_exact,envelope_exact"
    assert lines[1].startswith("10,6,")
    assert "14641/13122" in lines[1]
    # n = 11 is dropped, and said so: 10 is not a prime power
    assert [ln.split(",")[0] for ln in lines[1:]] == ["10", "12"]
    assert err.splitlines() == ["dropped n=11: n-1 = 10 is not a prime power"]


def test_compare_d_frac(capsys):
    rc, out, _ = run(capsys, "compare", "--mode", "new-vs-old",
                     "--n", "17", "--d-frac", "4/5")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("17,14,")  # ceil(0.8 * 17) = 14


def test_compare_empty_grid_is_header_only(capsys):
    # no applicable point: d exceeds every n in the range
    rc, out, _ = run(capsys, "compare", "--mode", "new-vs-old",
                     "--n-min", "4", "--n-max", "5", "--d", "12")
    assert rc == 0
    assert out.strip() == "n,d,ratio,envelope,ratio_exact,envelope_exact"


def test_compare_rejects_both_d_forms(capsys):
    rc, _, err = run(capsys, "compare", "--mode", "new-vs-old", "--n", "10",
                     "--d", "6", "--d-frac", "1/2")
    assert rc == 1


def test_compare_amds(capsys):
    rc, out, _ = run(capsys, "compare", "--mode", "amds-vs-old",
                     "--q", "4,8", "--alpha", "2", "--b", "3/4")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,n,d,a2,ratio,ratio_exact,b_threshold"
    assert lines[1] == "4,8,6,2,1.78723,14641/8192,1/2"
    assert lines[2].startswith("8,16,12,2,")


def test_compare_amds_reports_dropped_rows(capsys):
    # q=16 needs a clique over more candidate words than the budget allows:
    # A_2(16, 10) has 14,893 words of weight >= 10
    rc, out, err = run(capsys, "compare", "--mode", "amds-vs-old",
                       "--q", "8,16", "--alpha", "2", "--b", "5/8")
    assert rc == 0
    assert "q=16" in err
    assert not any(line.startswith("16,") for line in out.splitlines())


def test_clique_work_budget_drops_a_compare_row_and_ends_a_construct(tmp_path, capsys,
                                                                     monkeypatch):
    # the clique searches color 11 candidates for A_2(4, 2) = 8, 483 for
    # A_2(8, 5) = 4, and 4 for the code inside K of the [6,2,4]_3 construct
    monkeypatch.setattr("permcodes.combinat.MAX_CLIQUE_WORK", 11)
    rc, out, err = run(capsys, "compare", "--mode", "amds-vs-old",
                       "--q", "4,8", "--alpha", "2", "--b", "5/8")
    assert (rc, err) == (0, "dropped q=8: clique search colors more than 11 candidates\n")
    assert out.splitlines()[1:] == ["4,8,5,8,2.59961,1331/512,1/2"]
    p = tmp_path / "code.txt"
    p.write_text("3 6 2\n1 0 2 1 2 1\n0 1 2 2 2 2\n")
    monkeypatch.setattr("permcodes.combinat.MAX_CLIQUE_WORK", 3)
    got = run(capsys, "construct", "--source", "file", "--code-file", str(p),
              "--d", "4", "--gamma", "exact", "--seed", "1")
    assert got == (4, "", "budget exceeded: clique search colors more than 3 candidates\n")


def test_compare_amds_long_binary_length(capsys):
    # A_2(32, 31) has 33 candidate words, far inside the clique budget
    rc, out, err = run(capsys, "compare", "--mode", "amds-vs-old",
                       "--q", "32", "--alpha", "2", "--b", "31/32")
    assert (rc, err) == (0, "")
    assert out.splitlines()[1].startswith("32,64,62,2,")


def test_compare_amds_reports_non_integer_rows(capsys):
    # q = 9: n = 18 but d = 3/4 * 18 is not an integer
    rc, out, err = run(capsys, "compare", "--mode", "amds-vs-old",
                       "--q", "8,9", "--alpha", "2", "--b", "3/4")
    assert rc == 0
    assert err.splitlines() == ["dropped q=9: n = 18 and d = 27/2 must be integers"]
    assert [ln.split(",")[0] for ln in out.splitlines()[1:]] == ["8"]


def test_compare_amds_drops_a_row_out_of_range_before_its_clique(capsys, monkeypatch):
    # alpha = 4 puts n = 4q outside q < n <= 2q; A_2 is never asked for
    def no_clique(r, d):
        raise AssertionError(f"A_2({r}, {d}) computed for a dropped row")

    monkeypatch.setattr("permcodes.combinat.max_binary_code", no_clique)
    for q, b in (("8", "7/8"), ("4", "3/4")):
        rc, out, err = run(capsys, "compare", "--mode", "amds-vs-old",
                           "--q", q, "--alpha", "4", "--b", b)
        n = 4 * int(q)
        assert (rc, err) == (0, f"dropped q={q}: need q < n <= 2q, got n={n}, q={q}\n")
        assert out == "q,n,d,a2,ratio,ratio_exact,b_threshold\n"
    rc, _, err = run(capsys, "compare", "--mode", "amds-vs-old",
                     "--q", "6", "--alpha", "2", "--b", "3/4")
    assert (rc, err) == (0, "dropped q=6: q=6 is not a prime power\n")


def test_compare_amds_needs_q(capsys):
    rc, _, err = run(capsys, "compare", "--mode", "amds-vs-old")
    assert rc == 1


def test_field_output(capsys):
    rc, out, _ = run(capsys, "field", "--q", "9")
    assert rc == 0
    assert "q: 9" in out and "p: 3" in out and "m: 2" in out
    assert "modulus: x^2 + 1" in out


def test_field_tables(capsys):
    rc, out, _ = run(capsys, "field", "--q", "4", "--tables")
    assert rc == 0
    assert "add:" in out and "mul:" in out
    # GF(4) addition is xor on codes
    assert "0,1,2,3" in out


def test_field_rejects_non_prime_power(capsys):
    rc, _, err = run(capsys, "field", "--q", "12")
    assert rc == 2


def test_field_past_the_budget_exits_4_before_any_output(capsys):
    got = run(capsys, "field", "--q", "1031", "--tables")
    assert got == (4, "", "budget exceeded: GF(1031) is larger than the field budget 1024\n")


def test_code_search_found(tmp_path, capsys):
    out_path = tmp_path / "found.txt"
    rc, out, _ = run(capsys, "code-search", "--n", "6", "--k", "2", "--d", "4",
                     "--q", "4", "--seed", "3", "--out", str(out_path))
    assert rc == 0
    assert "found: [6,2,4]_4" in out
    assert out_path.read_text().startswith("4 6 2")


def test_code_search_writes_its_file_before_stdout(tmp_path, capsys):
    # an unwritable --out ends the command before its found: line
    rc, out, err = run(capsys, "code-search", "--n", "6", "--k", "2", "--d", "4", "--q", "4",
                       "--seed", "3", "--out", str(tmp_path / "nodir" / "x.txt"))
    assert (rc, out) == (1, "")
    assert err.startswith("file error: ")


def test_code_search_miss(capsys):
    # Singleton-impossible: d > n - k + 1
    rc, _, err = run(capsys, "code-search", "--n", "6", "--k", "3", "--d", "5",
                     "--q", "4", "--seed", "1", "--trials", "5")
    assert rc == 2
    assert "not found" in err


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every CLI process pays for what importing permcodes.cli pulls in, and
    # dataclasses alone brings inspect, ast, dis and tokenize
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys; before = set(sys.modules); import permcodes.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# Exact integers of any length


def test_table_prints_integers_past_the_str_digit_limit(capsys):
    # at d = 3, n = 1560 is the first n whose default columns (old and mds,
    # 4,303 digits each) pass the 4,300 digits str(int) allows by default
    rc, out, err = run(capsys, "table", "--d", "3", "--n-min", "1560", "--n-max", "1560")
    assert (rc, err) == (0, "")
    header, row = out.splitlines()
    cells = bounds.bound_report(1560, 3)
    printed = dict(zip(header.split(","), row.split(",")))
    assert printed.pop("n") == "1560"
    # main lifted the limit for this process, so str() of the cells works here
    assert {c: text.rstrip("*") for c, text in printed.items()} == {
        c: str(cells[c].rounded) if cells[c].applicable else "" for c in printed
    }
    assert max(map(len, printed.values())) > 4300


def test_compare_prints_integers_past_the_str_digit_limit(capsys):
    rc, out, err = run(capsys, "compare", "--mode", "amds-vs-old",
                       "--q", "1024", "--alpha", "2", "--b", "3/4")
    assert (rc, err) == (0, "")
    q, n, d, a2, _, ratio_exact, threshold = out.splitlines()[1].split(",")
    assert (q, n, d, a2, threshold) == ("1024", "2048", "1536", "2", "1/2")
    _, _, ratio = bounds.ratio_amds_old(1024, Fraction(2), Fraction(3, 4), 2)
    assert ratio_exact == str(ratio)
    assert len(str(ratio.numerator)) > 4300


# ---------------------------------------------------------------------------
# Each error class gives its exit code


def test_errors_defines_one_class_per_exit_code():
    public = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.PermcodesError)
        and not name.startswith("_")
    }
    assert public == {"PermcodesError", "ParseError", "ParameterError",
                      "VerificationFailed", "BudgetExceeded"}


@pytest.mark.parametrize("error,rc,prefix", [
    (errors.ParseError, 1, "parse error"),
    (errors.ParameterError, 2, "infeasible"),
    (errors.VerificationFailed, 3, "verification failed"),
    (errors.BudgetExceeded, 4, "budget exceeded"),
    (OSError, 1, "file error"),
])
def test_each_error_class_gives_its_exit_code(capsys, monkeypatch, error, rc, prefix):
    def fail(q):
        raise error("raised inside the command")

    monkeypatch.setattr("permcodes.gf.field_make", fail)
    assert run(capsys, "field", "--q", "4") == (rc, "", f"{prefix}: raised inside the command\n")
    if error is not OSError:  # the map lives on the class
        assert (error.exit_code, error.label) == (rc, prefix)


def test_usage_error_carries_exit_code_1():
    assert issubclass(cli._UsageError, errors.PermcodesError)
    assert (cli._UsageError.exit_code, cli._UsageError.label) == (1, "usage error")


# ---------------------------------------------------------------------------
# Every input ends in an exit code of 0 to 4


def _subcommand_actions():
    """subcommand -> its arguments, read from build_parser() itself (--help
    leaves through argparse's SystemExit by design, so it is left out)."""
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        for name, parser in sub.choices.items()
    }


SUBCOMMAND_ACTIONS = _subcommand_actions()
# an argument with no choices takes a small integer most of the time, else a
# fraction, a list or junk; n, k and q stay at 12 or below so that each
# command ends quickly
INT_VALUES = [str(i) for i in range(-2, 13)]
OTHER_VALUES = ["x", "3/4", "1/0", "abc", "4,5", "gv,mds"]
# relative to the directory that cli_inputs makes, where each check runs
INPUT_FILES = ["missing.txt", "empty.txt", "malformed.txt", "code.txt", "pc.txt"]
INPUT_DESTS = {"file", "code_file"}
OUTPUT_DESTS = {"out", "cert", "emit_code"}
OUTPUT_DIRS = ["out", "nodir"]  # nodir does not exist: the file cannot be written


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_inputs")
    (root / "empty.txt").write_text("")
    (root / "malformed.txt").write_text("7 6 2\n1 0 x\n")
    write_code_file(reed_solomon(7, 6, 3), root / "code.txt")
    (root / "pc.txt").write_text("5 2 3\n1 2 3 4 5\n2 3 1 4 5\n")
    (root / "out").mkdir()
    return root


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMAND_ACTIONS)))
    # each required argument most of the time, each other one half of it
    chosen = [
        a for a in SUBCOMMAND_ACTIONS[command]
        if draw(st.integers(0, 7) if a.required else st.booleans())
    ]
    argv = [command]
    for action in draw(st.permutations(chosen)):
        if action.option_strings:
            argv.append(draw(st.sampled_from(action.option_strings)))
        if action.dest in INPUT_DESTS:
            argv.append(draw(st.sampled_from(INPUT_FILES)))
        elif action.dest in OUTPUT_DESTS:
            argv.append(f"{draw(st.sampled_from(OUTPUT_DIRS))}/{action.dest}.txt")
        elif action.choices:
            argv.append(draw(st.sampled_from(sorted(action.choices))))
        elif action.nargs != 0:
            values = INT_VALUES if draw(st.integers(0, 15)) else OTHER_VALUES
            argv.append(draw(st.sampled_from(values)))
    return argv


@settings(max_examples=500, deadline=None)
@given(argv=cli_argv())
@example(argv=["table", "--d", "3", "--n-min", "1560", "--n-max", "1560"])
@example(argv=["compare", "--mode", "amds-vs-old", "--q", "1024", "--alpha", "2", "--b", "3/4"])
@example(argv=["code-search", "--n", "6", "--k", "2", "--d", "4", "--q", "4", "--seed", "3",
               "--out", "nodir/out.txt"])
def test_every_cli_input_ends_in_an_exit_code_of_0_to_4(cli_inputs, argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(cli_inputs)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        os.chdir(cwd)
    assert type(rc) is int and 0 <= rc <= 4, (rc, err.getvalue())
    event(f"{argv[0]} exit {rc}")
    if rc in (1, 2, 4):
        assert out.getvalue() == "", rc
        assert err.getvalue(), rc
    if rc == 3:
        assert argv[0] == "verify" or out.getvalue() == ""
