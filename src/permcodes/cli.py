"""Command line front end.

Subcommands: table, construct, verify, compare, field, code-search.
Exit codes: 0 success, 1 usage or malformed input, 2 infeasible parameters
or empty search, 3 verification failure, 4 budget exceeded.  All output is
deterministic for fixed flags: same bytes on every run.
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

from . import bounds, linear, mds, perms
from .errors import (
    BudgetExceeded,
    ParseError,
    PermcodesError,
    VerificationFailed,
)
from .gf import field_make

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4

TABLE_COLUMNS = ("gv", "sphere", "singleton", "old", "mds", "mds+1")
MARK_COLUMNS = {"old", "mds", "mds+1"}
DEFAULT_TABLE_COLUMNS = "mds,mds+1,old"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def format_sig6(fr: Fraction) -> str:
    """Six significant digits, computed in exact decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 6
        dec = Decimal(fr.numerator) / Decimal(fr.denominator)
    return str(dec)


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render_table(header: list[str], rows: list[list[str]], fmt: str) -> list[str]:
    if fmt == "csv":
        return [",".join(header)] + [",".join(r) for r in rows]
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join([" --- "] * len(header)) + "|")
    for r in rows:
        lines.append("| " + " | ".join(r) + " |")
    return lines


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {text!r}") from None


def _count(text: str) -> int:
    """argparse type of --budget and --trials: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _budget(args) -> dict:
    """--budget as a keyword argument when given; else each library default holds."""
    return {} if args.budget is None else {"budget": args.budget}


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        raise _UsageError(f"not a comma-separated integer list: {text!r}") from None


# ---------------------------------------------------------------------------
# table


def cmd_table(args) -> int:
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    for c in columns:
        if c not in TABLE_COLUMNS:
            raise _UsageError(
                f"unknown column {c!r}; choose from {', '.join(TABLE_COLUMNS)}"
            )
    if args.n_min > args.n_max:
        raise _UsageError("--n-min must not exceed --n-max")
    if args.d < 3:
        raise _UsageError("table needs --d >= 3")
    marker_cols = [c for c in columns if c in MARK_COLUMNS]
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        cells = bounds.bound_report(n, args.d)
        best = None
        for c in marker_cols:
            cell = cells[c]
            if cell.applicable and (best is None or cell.rounded > best):
                best = cell.rounded
        row = [str(n)]
        for c in columns:
            cell = cells[c]
            if not cell.applicable:
                row.append("")
                continue
            text = str(cell.rounded)
            if c in MARK_COLUMNS and best is not None and cell.rounded == best:
                text = text + "*" if args.format == "csv" else f"**{text}**"
            row.append(text)
        rows.append(row)
    _emit(_render_table(["n"] + columns, rows, args.format), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def _load_construct_code(args) -> linear.LinearCode:
    if args.source == "rs":
        if args.q is None or args.n is None or args.k is None:
            raise _UsageError("--source rs needs --q, --n and --k")
        return mds.reed_solomon(args.q, args.n, args.k)
    if args.source == "xrs":
        if args.q is None or args.k is None:
            raise _UsageError("--source xrs needs --q and --k")
        if args.n is not None and args.n != args.q + 1:
            raise _UsageError(f"--source xrs has n = q+1 = {args.q + 1}")
        return mds.extended_rs(args.q, args.k)
    if args.code_file is None:
        raise _UsageError("--source file needs --code-file")
    code = linear.read_code_file(args.code_file)
    for name, given, actual in (
        ("--n", args.n, code.n),
        ("--k", args.k, code.k),
        ("--q", args.q, code.spec.q),
    ):
        if given is not None and given != actual:
            raise _UsageError(f"{name} {given} contradicts the file ({actual})")
    return code


def cmd_construct(args) -> int:
    budget = _budget(args)
    code = _load_construct_code(args)
    dm = linear.min_distance(code, **budget)
    if dm < args.d:
        print(
            f"infeasible: code has distance {dm}, below requested {args.d}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE

    if args.ones_row and args.seed is None:
        raise _UsageError("--seed is required (full-weight dual search)")
    # Gamma' (n, q and d only) comes before the dual search: its hint is no dead end
    kspec = perms.ResidueSubgroupSpec.for_params(code.n, code.spec.q)
    if args.gamma == "identity":
        gamma = perms.PermutationCode(code.n, [perms.identity_perm(code.n)])
    elif args.gamma == "exact":
        gamma = perms.max_code_in_K(kspec, dm, mode="exact")
    elif args.gamma == "greedy":
        if args.seed is None:
            raise _UsageError("--gamma greedy requires --seed")
        gamma = perms.max_code_in_K(kspec, dm, mode="greedy", seed=args.seed)
    else:
        gamma, _ = perms.lift_code_into_K(kspec, dm)

    if args.ones_row:
        w = linear.find_full_weight_dual_codeword(code, args.seed, **budget)
        if w is None:
            print(
                "infeasible: no full-weight dual codeword found; "
                "try --no-ones-row",
                file=sys.stderr,
            )
            return EXIT_INFEASIBLE
        work = linear.normalize_first_row_ones(code, w)
    else:
        work = code

    pc, cert = perms.construct_permutation_code(
        work,
        gamma.members,
        assume_ones_row=args.ones_row,
        seed=args.seed,
        **budget,
    )
    if args.out:
        perms.write_permutation_code(pc, args.out, distance=cert.verified_distance)
    if args.cert:
        Path(args.cert).write_text(cert.to_text())
    if args.emit_code:
        linear.write_code_file(work, args.emit_code)
    print(
        f"constructed: n={cert.n} q={cert.q} k={cert.k} d={cert.d} "
        f"size={cert.bucket_size} floor={cert.guaranteed_floor} "
        f"distance={cert.verified_distance} "
        f"syndrome={' '.join(str(x) for x in cert.syndrome)}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    n, size, dval, rows = perms.read_permutation_code(args.file)
    # the search starts at the distance the file claims; its result is exact
    expected = dval if dval != math.inf else args.d or 2
    recomputed = perms.code_min_distance(rows, expected, **_budget(args))
    problems: list[str] = []
    if len(rows) != size:
        problems.append(f"header declares {size} rows, file has {len(rows)}")
    if recomputed == 0:
        problems.append("duplicate rows (distance 0)")
    dtxt = "inf" if recomputed == math.inf else str(recomputed)
    if recomputed != dval:
        problems.append(f"header declares distance {dval}, recomputed {dtxt}")
    if args.d is not None and recomputed < args.d:
        problems.append(f"distance {dtxt} is below required {args.d}")
    print(f"file: {args.file}")
    print(f"n: {n}")
    print(f"rows: {len(rows)}")
    print(f"distance: {dtxt}")
    if problems:
        for p in problems:
            print(f"FAIL: {p}")
        return EXIT_VERIFICATION
    print("PASS")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare


def _compare_ns(args) -> list[int]:
    if args.n is not None:
        return _parse_int_list(args.n)
    if args.n_min is not None and args.n_max is not None:
        if args.n_min > args.n_max:
            raise _UsageError("--n-min must not exceed --n-max")
        return list(range(args.n_min, args.n_max + 1))
    raise _UsageError("give --n or both --n-min and --n-max")


def cmd_compare(args) -> int:
    if args.mode == "new-vs-old":
        if (args.d is None) == (args.d_frac is None):
            raise _UsageError("give exactly one of --d or --d-frac")
        frac = _parse_fraction(args.d_frac) if args.d_frac else None
        rows = []
        for n in _compare_ns(args):
            d = args.d if args.d is not None else math.ceil(frac * n)
            try:
                ratio, envelope = bounds.ratio_new_old(n, d)
            except PermcodesError as exc:
                print(f"dropped n={n}: {exc}", file=sys.stderr)
                continue
            rows.append(
                [
                    str(n),
                    str(d),
                    format_sig6(ratio),
                    format_sig6(envelope),
                    str(ratio),
                    str(envelope),
                ]
            )
        header = ["n", "d", "ratio", "envelope", "ratio_exact", "envelope_exact"]
        _emit(_render_table(header, rows, args.format), args.out)
        return EXIT_OK

    # amds-vs-old
    if args.q is None:
        raise _UsageError("--mode amds-vs-old needs --q")
    alpha = _parse_fraction(args.alpha)
    b = _parse_fraction(args.b)
    try:
        threshold = str(bounds.amds_vs_old_threshold(alpha))
    except PermcodesError:
        threshold = ""
    rows = []
    for q in _parse_int_list(args.q):
        try:
            n, d = bounds.amds_grid_point(q, alpha, b)
            a2, _ = perms.max_binary_code(n - q, d // 2)
            _, _, ratio = bounds.ratio_amds_old(q, alpha, b, a2)
        except PermcodesError as exc:
            print(f"dropped q={q}: {exc}", file=sys.stderr)
            continue
        rows.append(
            [str(q), str(n), str(d), str(a2), format_sig6(ratio), str(ratio), threshold]
        )
    header = ["q", "n", "d", "a2", "ratio", "ratio_exact", "b_threshold"]
    _emit(_render_table(header, rows, args.format), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# field


def _poly_str(coeffs: tuple[int, ...]) -> str:
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            terms.append(x if c == 1 else f"{c}{x}")
    return " + ".join(terms) if terms else "0"


def cmd_field(args) -> int:
    spec = field_make(args.q)
    print(f"q: {spec.q}")
    print(f"p: {spec.p}")
    print(f"m: {spec.m}")
    print(f"modulus: {_poly_str(spec.modulus)}")
    if args.tables:
        add, mul, _, _ = spec.tables()
        print("add:")
        for row in add:
            print(",".join(str(x) for x in row))
        print("mul:")
        for row in mul:
            print(",".join(str(x) for x in row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# code-search


def cmd_code_search(args) -> int:
    code = linear.random_code_search(
        args.n, args.k, args.d, args.q, args.seed, args.trials, **_budget(args)
    )
    if code is None:
        print(
            f"not found: no [{args.n},{args.k},{args.d}]_{args.q} code in "
            f"{args.trials} trials",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    defect = linear.singleton_defect(code)
    print(
        f"found: [{code.n},{code.k},{code.d}]_{code.spec.q} "
        f"singleton_defect={defect} seed={args.seed}"
    )
    if args.out:
        linear.write_code_file(code, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="permcodes",
        description="Permutation codes from linear block codes: bounds, "
        "construction, verification.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("table", help="tabulate bounds over a range of n")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--columns", default=DEFAULT_TABLE_COLUMNS)
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("construct", help="build and certify a permutation code")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--source", choices=("rs", "xrs", "file"), default="rs")
    p.add_argument("--code-file")
    p.add_argument(
        "--gamma", choices=("exact", "greedy", "lift", "identity"), default="exact"
    )
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=_count)
    p.add_argument(
        "--no-ones-row",
        dest="ones_row",
        action="store_false",
        help="skip the all-ones normalization (weaker floor)",
    )
    p.add_argument("--out", help="write the permutation code here")
    p.add_argument("--cert", help="write the certificate here")
    p.add_argument("--emit-code", help="write the (normalized) linear code here")
    p.set_defaults(func=cmd_construct, ones_row=True)

    p = sub.add_parser("verify", help="re-check a permutation code file")
    p.add_argument("file")
    p.add_argument("--d", type=int)
    p.add_argument("--budget", type=_count)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="ratio studies between bounds")
    p.add_argument("--mode", choices=("new-vs-old", "amds-vs-old"), required=True)
    p.add_argument("--n")
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--d-frac")
    p.add_argument("--q")
    p.add_argument("--alpha", default="2")
    p.add_argument("--b", default="3/4")
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("field", help="print a field's spec and tables")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tables", action="store_true")
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("code-search", help="seeded random linear code search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=_count, default=1000)
    p.add_argument("--budget", type=_count)
    p.add_argument("--out")
    p.set_defaults(func=cmd_code_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise _UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationFailed as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except PermcodesError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    raise SystemExit(main())
