"""Command line behavior: output shapes, determinism, exit codes."""

import math

import pytest

from permcodes.cli import main
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
    assert rc == 1 and "nope" in err


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


def test_construct_budget_exit(capsys):
    rc, _, err = run(capsys, "construct", "--d", "3", "--q", "7", "--n", "6",
                     "--k", "4", "--source", "rs", "--seed", "1",
                     "--budget", "100")
    assert rc == 4


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


def test_compare_new_vs_old(capsys):
    rc, out, _ = run(capsys, "compare", "--mode", "new-vs-old",
                     "--n", "10,11,12", "--d", "6")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d,ratio,envelope,ratio_exact,envelope_exact"
    assert lines[1].startswith("10,6,")
    assert "14641/13122" in lines[1]
    # n = 11 silently skipped: 10 is not a prime power
    assert [ln.split(",")[0] for ln in lines[1:]] == ["10", "12"]


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
    # q=16 needs a clique over more candidate words than the budget allows
    rc, out, err = run(capsys, "compare", "--mode", "amds-vs-old",
                       "--q", "8,16", "--alpha", "2", "--b", "11/16")
    assert rc == 0
    assert "q=16" in err
    assert not any(line.startswith("16,") for line in out.splitlines())


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


def test_code_search_found(tmp_path, capsys):
    out_path = tmp_path / "found.txt"
    rc, out, _ = run(capsys, "code-search", "--n", "6", "--k", "2", "--d", "4",
                     "--q", "4", "--seed", "3", "--out", str(out_path))
    assert rc == 0
    assert "found: [6,2,4]_4" in out
    assert out_path.read_text().startswith("4 6 2")


def test_code_search_miss(capsys):
    # Singleton-impossible: d > n - k + 1
    rc, _, err = run(capsys, "code-search", "--n", "6", "--k", "3", "--d", "5",
                     "--q", "4", "--seed", "1", "--trials", "5")
    assert rc == 2
    assert "not found" in err
