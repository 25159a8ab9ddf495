"""Acceptance gate.

One test per numbered criterion; each prints a `criterion N: PASS/FAIL`
line (run pytest with -rA or -s to see the lines for passing tests).

Criterion 8 is split: the distance-doubling half holds and passes; the
floor-based equality half is asserted exactly as stated and FAILS, because
the equality is mathematically false at odd distances.  The failure message
lists the counterexamples and shows that the ceiling-based variant of the
same identity does hold.  The red result is intentional; do not weaken the
assertion to hide it.
"""

import itertools
import math
import time
from fractions import Fraction

from permcodes.bounds import (
    amds_lower,
    bound_report,
    derangement_count,
    ratio_amds_old,
    ratio_new_old,
)
from permcodes.cli import main
from permcodes.gf import is_prime_power
from permcodes.linear import (
    dual,
    find_full_weight_dual_codeword,
    in_dual,
    min_distance,
    nonzero_weight_set,
    normalize_first_row_ones,
    random_code_search,
    rref,
    singleton_defect,
)
from permcodes.mds import extended_rs, reed_solomon, verify_dual_mds
from permcodes.perms import (
    ResidueSubgroupSpec,
    binary_lift,
    brute_force_M,
    code_min_distance,
    compose,
    construct_permutation_code,
    identity_perm,
    label_sum,
    lift_code_into_K,
    max_binary_code,
    max_code_in_K,
    perm_hamming,
    subgroup_K,
    syndrome_buckets,
)

ENUM_CAP = 10**6


def report(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {tag}{suffix}", flush=True)


# ---------------------------------------------------------------------------
# 1. bound table reproduction


TABLE_MDS = [56, 248, 2727, 16772, 218026, 1330236, 19953528, 319256438,
             4258658638, 49127720826, 933426695689, 8693872621156,
             182571325044256]
TABLE_MDS_PLUS1 = [45, 277, None, 16359, None, 1526178, None, None,
                   2713679719, 38327927742, None, 9334266956886, None]
TABLE_OLD = [25, 248, 2727, 16772, 218026, 1043789, 15656834, 250509332,
             4258658638, 49127720826, 933426695689, 8693872621156,
             182571325044256]


def test_criterion_01_table_reproduction(capsys):
    t0 = time.perf_counter()
    rc = main(["table", "--d", "6", "--n-min", "9", "--n-max", "21"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        lines = out.strip().splitlines()
        assert rc == 0
        assert lines[0] == "n,mds,mds+1,old"
        got_mds, got_plus, got_old = [], [], []
        for line in lines[1:]:
            _, c_mds, c_plus, c_old = line.split(",")
            got_mds.append(int(c_mds.rstrip("*")))
            got_plus.append(int(c_plus.rstrip("*")) if c_plus else None)
            got_old.append(int(c_old.rstrip("*")))
        ok = (
            got_mds == TABLE_MDS
            and got_plus == TABLE_MDS_PLUS1
            and got_old == TABLE_OLD
            and elapsed < 5.0
        )
        report(1, ok, f"39 cells exact, {elapsed:.2f}s")
        assert got_mds == TABLE_MDS
        assert got_plus == TABLE_MDS_PLUS1
        assert got_old == TABLE_OLD
        assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2-4. construction fixtures


def build_fixture_a():
    code = reed_solomon(7, 6, 4)
    assert min_distance(code) == 3
    w = find_full_weight_dual_codeword(code, seed=7)
    assert w is not None
    return normalize_first_row_ones(code, w), [identity_perm(6)], 3, 103


def build_fixture_b():
    code = extended_rs(5, 3)
    assert min_distance(code) == 4
    kspec = ResidueSubgroupSpec.for_params(6, 5)
    assert kspec.order == 2
    w = find_full_weight_dual_codeword(code, seed=5)
    assert w is not None
    return normalize_first_row_ones(code, w), [identity_perm(6)], 4, 15


def build_fixture_c():
    code = random_code_search(6, 2, 4, 4, seed=3)
    assert code is not None
    assert singleton_defect(code) == 1  # AMDS
    # the systematic sampling route must be the one that applies:
    # dimension within q-2 and no zero row in the non-pivot block
    _, _, pivots = rref(code.generator)
    free = [j for j in range(code.n) if j not in set(pivots)]
    a_block = [[code.generator.rows[i][j] for j in free] for i in range(code.k)]
    assert code.k <= code.spec.q - 2
    assert all(any(row) for row in a_block)
    w = find_full_weight_dual_codeword(code, seed=3)
    assert w is not None and 0 not in w and in_dual(code, w)
    work = normalize_first_row_ones(code, w)
    kspec = ResidueSubgroupSpec.for_params(6, 4)
    assert kspec.order == 4  # two 2-cycles of residues: (S_2)^2
    gamma, binary_size = lift_code_into_K(kspec, 4)
    assert binary_size == 2  # best 2-bit code at distance 2
    assert gamma.size == 2
    return work, list(gamma.members), 4, 6


def run_fixture(num, builder, budget_s=30.0):
    t0 = time.perf_counter()
    work, gamma, d, floor = builder()
    pc, cert = construct_permutation_code(work, gamma, assume_ones_row=True, seed=1)
    dist = code_min_distance(pc)
    elapsed = time.perf_counter() - t0
    ok = pc.size >= floor and dist >= d and cert.guaranteed_floor == floor
    report(num, ok, f"size {pc.size} >= {floor}, distance {dist} >= {d}, {elapsed:.2f}s")
    assert cert.guaranteed_floor == floor
    assert pc.size >= floor
    assert dist >= d
    assert elapsed < budget_s


def test_criterion_02_fixture_a(capsys):
    with capsys.disabled():
        run_fixture(2, build_fixture_a)


def test_criterion_03_fixture_b(capsys):
    with capsys.disabled():
        run_fixture(3, build_fixture_b)


def test_criterion_04_fixture_c(capsys):
    with capsys.disabled():
        run_fixture(4, build_fixture_c)


# ---------------------------------------------------------------------------
# 5. bucket soundness sweep


def test_criterion_05_every_bucket_is_sound(capsys):
    with capsys.disabled():
        details = []
        for name, builder in (("A", build_fixture_a), ("B", build_fixture_b),
                              ("C", build_fixture_c)):
            work, gamma, d, _ = builder()
            buckets, _check = syndrome_buckets(work, assume_ones_row=True)
            forced = label_sum(work.n, work.spec)
            for syn, reps in buckets.items():
                members = [compose(g, rep) for rep in reps for g in gamma]
                assert syn[0] == forced, f"fixture {name}: syndrome {syn} escapes the slice"
                assert code_min_distance(members) >= d, (
                    f"fixture {name}: bucket {syn} has distance below {d}"
                )
            details.append(f"{name}: {len(buckets)} buckets")
        report(5, True, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. MDS property suite


def test_criterion_06_mds_suite(capsys):
    t0 = time.perf_counter()
    with capsys.disabled():
        checked_codes = 0
        for q in (4, 5, 7, 8, 9):
            for n in range(2, q + 1):
                for k in range(1, n):
                    if q**k > ENUM_CAP:
                        continue
                    code = reed_solomon(q, n, k)
                    assert singleton_defect(code) == 0, f"[{n},{k}]_{q} not MDS"
                    assert verify_dual_mds(code, budget=ENUM_CAP), (
                        f"dual of [{n},{k}]_{q} not MDS"
                    )
                    checked_codes += 1

        # full-length duals contain a full-weight word
        witnessed = 0
        for q in (4, 5, 7, 8, 9):
            for k in range(1, q):
                if q**k > ENUM_CAP:
                    continue
                code = reed_solomon(q, q, k)
                if q ** (q - k) <= ENUM_CAP:
                    weights = nonzero_weight_set(dual(code), budget=ENUM_CAP)
                    assert q in weights, f"dual of [{q},{k}]_{q} misses weight {q}"
                else:
                    w = find_full_weight_dual_codeword(code, seed=101)
                    assert w is not None and 0 not in w, (
                        f"no full-weight dual word found for [{q},{k}]_{q}"
                    )
                witnessed += 1

        # extended duals contain weight q+1, except the two-dimensional dual
        # whose nonzero weights all equal q
        extended_checked = 0
        for q in (4, 5, 7, 8, 9):
            for k in range(1, q + 1):
                if q**k > ENUM_CAP:
                    continue
                code = extended_rs(q, k)
                if k == q - 1:
                    assert nonzero_weight_set(dual(code)) == {q}
                elif q ** (q + 1 - k) <= ENUM_CAP:
                    assert q + 1 in nonzero_weight_set(dual(code), budget=ENUM_CAP)
                else:
                    w = find_full_weight_dual_codeword(code, seed=101)
                    assert w is not None and 0 not in w
                extended_checked += 1

        elapsed = time.perf_counter() - t0
        ok = elapsed < 120.0
        report(6, ok, f"{checked_codes} codes, {witnessed}+{extended_checked} spectra, {elapsed:.1f}s")
        assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 7. tiny-n oracle sweep


def test_criterion_07_bounds_bracket_true_maxima(capsys):
    t0 = time.perf_counter()
    with capsys.disabled():
        pairs = 0
        for n in (2, 3, 4, 5):
            for d in range(1, n + 1):
                m = brute_force_M(n, d)
                cells = bound_report(n, d).cells()
                for name in ("gv", "old", "mds", "mds+1"):
                    if cells[name].applicable:
                        assert cells[name].rounded <= m, (
                            f"{name}({n},{d}) = {cells[name].rounded} exceeds M = {m}"
                        )
                        pairs += 1
                for name in ("sphere", "singleton"):
                    if cells[name].applicable:
                        assert m <= cells[name].rounded, (
                            f"{name}({n},{d}) = {cells[name].rounded} below M = {m}"
                        )
                        pairs += 1
                # the subgroup-lift lower bound, where its window opens
                for q in (2, 3, 4):
                    if not (is_prime_power(q) and q < n <= 2 * q and d >= 2):
                        continue
                    a2 = max_binary_code(n - q, d // 2)[0] if d // 2 >= 1 else None
                    if a2 is None:
                        continue
                    got = amds_lower(n, d, q, a2)
                    assert got.rounded <= m, (
                        f"amds({n},{d},q={q}) = {got.rounded} exceeds M = {m}"
                    )
                    pairs += 1

        # derangement recurrence against direct fixed-point-free counts
        for r in range(8):
            direct = sum(
                1
                for p in itertools.permutations(range(r))
                if all(p[i] != i for i in range(r))
            )
            assert derangement_count(r) == direct

        elapsed = time.perf_counter() - t0
        ok = elapsed < 60.0
        report(7, ok, f"{pairs} bound/oracle comparisons, derangements r<=7, {elapsed:.1f}s")
        assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. involution-lift suite (two halves)


def test_criterion_08a_distance_doubling(capsys):
    t0 = time.perf_counter()
    with capsys.disabled():
        checked = 0
        for r in (1, 2, 3, 4):
            n = 2 * r
            words = list(itertools.product((0, 1), repeat=r))
            lifted = [binary_lift(w, n=n) for w in words]
            for (wa, pa), (wb, pb) in itertools.combinations(zip(words, lifted), 2):
                bin_d = sum(x != y for x, y in zip(wa, wb))
                assert perm_hamming(pa, pb) == 2 * bin_d
                checked += 1
        elapsed = time.perf_counter() - t0
        ok = elapsed < 60.0
        report("8a", ok, f"doubling exact on {checked} pairs, r <= 4, {elapsed:.1f}s")
        assert elapsed < 60.0


# (n, q) giving K shaped like (S_2)^r for r = 1, 2, 3
R_SHAPES = {1: (3, 2), 2: (6, 4), 3: (6, 3)}


def test_criterion_08b_subgroup_equality(capsys):
    t0 = time.perf_counter()
    with capsys.disabled():
        rows = []
        mismatches = []
        for r, (n, q) in R_SHAPES.items():
            spec = ResidueSubgroupSpec.for_params(n, q)
            assert spec.order == 2**r
            for d in range(2, 7):
                exact = max_code_in_K(spec, d, mode="exact").size
                floor_half = d // 2
                stated = max_binary_code(r, floor_half)[0] if floor_half >= 1 else 2**r
                ceil_half = (d + 1) // 2
                corrected = max_binary_code(r, ceil_half)[0]
                rows.append((r, d, exact, stated, corrected))
                if exact != stated:
                    mismatches.append((r, d, exact, stated))
        elapsed = time.perf_counter() - t0
        ok = not mismatches and elapsed < 60.0
        report("8b", ok, f"{len(mismatches)} mismatches at odd d, {elapsed:.1f}s")
        assert elapsed < 60.0
        if mismatches:
            ceil_ok = all(exact == corr for _, _, exact, _, corr in rows)
            lines = [
                "the stated identity max_code_in_K(r, d) == A_2(r, floor(d/2)) fails:",
            ]
            for r, d, exact, stated in mismatches:
                lines.append(
                    f"  r={r} d={d}: subgroup maximum {exact}, A_2(r,{d // 2}) = {stated}"
                )
            lines.append(
                "distances inside (S_2)^r are even, so odd d behaves like d+1; "
                f"the ceiling variant A_2(r, ceil(d/2)) matches everywhere: {ceil_ok}"
            )
            raise AssertionError("\n".join(lines))


# ---------------------------------------------------------------------------
# 9. envelope growth along the doubling grid


def exact_exp_bounds(x: Fraction, terms: int = 26) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds for e^x from the Taylor partial sum."""
    s = Fraction(0)
    term = Fraction(1)
    for i in range(terms):
        s += term
        term = term * x / (i + 1)
    # geometric tail bound: remaining <= term / (1 - x/(terms+1))
    tail = term / (1 - x / (terms + 1))
    return s, s + tail


def test_criterion_09_envelope_monotone(capsys):
    with capsys.disabled():
        grid = [17, 33, 65, 129]
        envelopes = []
        for n in grid:
            d = -((-4 * n) // 5)  # ceil(0.8 n)
            ratio, envelope = ratio_new_old(n, d)
            assert ratio >= envelope, f"n={n}: ratio fell below its envelope"
            envelopes.append(envelope)
        for a, b in zip(envelopes, envelopes[1:]):
            assert b > a, "envelope sequence failed to increase"
        lo, _hi = exact_exp_bounds(Fraction(4, 5))
        limit_lower = lo / 2
        assert all(e < limit_lower for e in envelopes), (
            "an envelope value crossed the limit e^0.8 / 2"
        )
        report(9, True, "4 grid points increasing toward the limit, ratios >= envelopes")


# ---------------------------------------------------------------------------
# 10. scaling-family ratio growth


def test_criterion_10_amds_ratio_increases(capsys):
    with capsys.disabled():
        alpha, b = Fraction(2), Fraction(3, 4)
        ratios = []
        for q in (4, 8):
            # n = 2q, d = 3n/4 = 3q/2; the binary leg lives on n - q = q points
            a2, _ = max_binary_code(q, (3 * q // 2) // 2)
            n, d, ratio = ratio_amds_old(q, alpha, b, a2)
            assert (n, d) == (2 * q, 3 * q // 2)
            ratios.append(ratio)
        assert ratios[0] == Fraction(14641, 8192)
        assert ratios[1] == Fraction(17**10, 2**40)
        assert ratios[1] > ratios[0]
        report(10, True, f"{float(ratios[0]):.4f} -> {float(ratios[1]):.4f} strictly up")
