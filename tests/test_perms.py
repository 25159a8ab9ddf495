"""Permutation machinery: group ops, subgroups, cliques, the construction.

The frozen maximum-code sizes below are pinned independently of the clique
engine: a concrete group witness provides the lower bound and the factorial
upper bound n!/(d-1)! provides the matching cap, so each equality is forced
before oracles.brute_force_M is ever consulted.
"""

import functools
import gc
import itertools
import math
import random
import re
import sys
import time
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcodes.bounds import (
    amds_lower,
    envelope_new_old,
    general_firstbound,
    hamming_ball_size,
    singleton_like_upper,
)
from permcodes.combinat import (
    MAX_CLIQUE_VERTICES,
    _binary_clique,
    _distance_graph,
    _max_clique,
    max_binary_code,
    pigeonhole_floor,
)
from permcodes.errors import BudgetExceeded, ParameterError, ParseError, VerificationFailed
from permcodes.gf import field_make, is_prime_power
from permcodes.linear import (
    LinearCode,
    MatrixGF,
    find_full_weight_dual_codeword,
    min_distance,
    normalize_first_row_ones,
    parity_check,
    parity_check_with_ones_row,
    random_code_search,
)
from permcodes.mds import extended_rs, reed_solomon
from permcodes.perms import (
    DENSE_FACTOR,
    ConstructionCertificate,
    PermutationCode,
    ResidueSubgroupSpec,
    SyndromeTable,
    binary_lift,
    code_min_distance,
    compose,
    construct,
    construct_permutation_code,
    identity_perm,
    lift_code_into_K,
    max_code_in_K,
    perm_hamming,
    read_permutation_code,
    subgroup_K,
    syndrome_buckets,
    write_permutation_code,
)

from oracles import (
    brute_force_M,
    brute_force_max_code,
    oracle_add,
    oracle_code_distance,
    oracle_coset_representatives,
    oracle_distance_graph,
    oracle_greedy_code,
    oracle_label_sum,
    oracle_largest_bucket,
    oracle_max_subset_size,
    oracle_perm_distance,
    oracle_syndrome,
)


# ---------------------------------------------------------------------------
# group basics


def inverse(p):
    return tuple(p.index(i) + 1 for i in range(1, len(p) + 1))


def test_compose_and_inverse():
    f = (2, 3, 1)  # 1->2, 2->3, 3->1
    g = (1, 3, 2)
    assert compose(f, g) == (2, 1, 3)  # apply g first, then f
    assert compose(f, inverse(f)) == identity_perm(3)
    assert compose(inverse(f), f) == identity_perm(3)
    assert inverse(g) == g


def test_perm_hamming():
    assert perm_hamming((1, 2, 3), (1, 2, 3)) == 0
    assert perm_hamming((1, 2, 3), (2, 1, 3)) == 2
    assert perm_hamming((1, 2, 3, 4), (2, 3, 4, 1)) == 4


def test_distance_is_right_invariant():
    # exhaustive over S_3 triples, sampled pairs in S_4
    s3 = list(itertools.permutations(range(1, 4)))
    for a in s3:
        for b in s3:
            for t in s3:
                assert perm_hamming(compose(a, t), compose(b, t)) == perm_hamming(a, b)


def test_permutation_code_validation():
    pc = PermutationCode(3, [(1, 2, 3), (2, 3, 1)])
    assert pc.size == 2 and (1, 2, 3) in pc
    with pytest.raises(ParameterError):
        PermutationCode(3, [(1, 2, 3), (1, 2, 3)])  # duplicate
    with pytest.raises(ParameterError):
        PermutationCode(3, [(1, 2, 2)])  # not a permutation
    with pytest.raises(ParameterError):
        PermutationCode(3, [(1, 2, 3, 4)])  # wrong length


def test_code_min_distance_against_pair_loop():
    members = [p for p in itertools.permutations(range(1, 5)) if p[0] != 2]
    assert code_min_distance(members) == oracle_code_distance(members)
    assert code_min_distance([(1, 2, 3)]) == math.inf
    assert code_min_distance([]) == math.inf
    # n = 2: level t0 = 1 never collides for distinct rows, so the result is n
    for expected in range(5):
        assert code_min_distance([(1, 2), (2, 1)], expected) == 2
    with pytest.raises(ParameterError, match="^permutations act on different sets$"):
        code_min_distance([(1, 2), (1, 2, 3)])


@st.composite
def permutation_lists(draw):
    """Up to 40 permutations of 1..n, n <= 9.  Each row is fresh or a copy of
    an earlier row with a few entries swapped (so small distances occur), and
    sometimes an exact copy is inserted."""
    n = draw(st.integers(1, 9))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        if rows and draw(st.booleans()):
            row = list(draw(st.sampled_from(rows)))
            for _ in range(draw(st.integers(1, 3))):
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                row[i], row[j] = row[j], row[i]
            rows.append(tuple(row))
        else:
            rows.append(tuple(draw(st.permutations(range(1, n + 1)))))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    return rows


@settings(max_examples=300, deadline=None)
@given(permutation_lists())
def test_code_min_distance_matches_pair_loop(rows):
    want = oracle_code_distance(rows)
    assert code_min_distance(rows) == (math.inf if want is None else want)


@settings(max_examples=200, deadline=None)
@given(permutation_lists())
def test_code_min_distance_is_exact_from_any_start(rows):
    # the expected distance only picks the first level tested
    want = oracle_code_distance(rows)
    want = math.inf if want is None else want
    n = len(rows[0]) if rows else 1
    for expected in range(n + 3):
        assert code_min_distance(rows, expected) == want, expected


def test_code_min_distance_starts_at_the_expected_distance():
    # 567 rows at distance 5 in S_9: started at 5 the check hashes the
    # duplicate pass, level 4 (C(9, 4) masks) and at most the C(9, 5) masks
    # of level 5; started at 2 it must also clear levels 2 and 3, and runs
    # out of keys inside level 5
    pc, cert = construct_permutation_code(
        reed_solomon(9, 9, 5), [identity_perm(9)], assume_ones_row=False, budget=362880
    )
    rows, m = list(pc.members), pc.size
    assert (m, cert.verified_distance) == (567, 5)
    c = functools.partial(math.comb, 9)
    assert code_min_distance(rows, 5, budget=m * (1 + c(4) + c(5))) == 5
    with pytest.raises(BudgetExceeded):
        code_min_distance(rows, 2, budget=m * (1 + c(2) + c(3) + c(4)))
    assert code_min_distance(rows, 2) == 5


def test_code_min_distance_rejects_entries_outside_1_to_n():
    with pytest.raises(ParameterError):
        code_min_distance([(1, 2, 3), (1, 2, 4)])


# ---------------------------------------------------------------------------
# frozen maxima, pinned by witness + cap


def alternating_group(n):
    out = []
    for p in itertools.permutations(range(1, n + 1)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if p[i] > p[j]
        )
        if inv % 2 == 0:
            out.append(p)
    return out


def affine_group_5():
    """x -> ax + b over the 5-element prime field, as permutations of 1..5."""
    out = []
    for a in range(1, 5):
        for b in range(5):
            out.append(tuple(((a * i + b) % 5) + 1 for i in range(5)))
    return out


def cyclic_group(n):
    return [tuple((i + s) % n + 1 for i in range(n)) for s in range(n)]


@pytest.mark.parametrize(
    "n,d,witness_name",
    [
        (3, 3, "cyclic"),
        (4, 3, "alternating"),
        (4, 4, "cyclic"),
        (5, 3, "alternating"),
        (5, 4, "affine"),
        (5, 5, "cyclic"),
    ],
)
def test_maxima_pinned_by_witness_and_cap(n, d, witness_name):
    witness = {
        "cyclic": cyclic_group,
        "alternating": alternating_group,
        "affine": lambda m: affine_group_5(),
    }[witness_name](n)
    assert oracle_code_distance(witness) >= d
    cap = singleton_like_upper(n, d)[1]
    assert len(witness) == cap  # witness meets the cap: M(n, d) is pinned
    assert brute_force_M(n, d) == cap


def test_trivial_maxima():
    for n in (3, 4, 5):
        assert brute_force_M(n, 1) == math.factorial(n)
        assert brute_force_M(n, 2) == math.factorial(n)


def test_brute_force_witness_is_a_code():
    pc = brute_force_max_code(4, 3)
    assert pc.size == 12
    assert code_min_distance(pc) >= 3


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_M(6, 3)  # 720 > default budget of 120


# ---------------------------------------------------------------------------
# residue subgroup


def test_residue_spec_shapes():
    spec = ResidueSubgroupSpec.for_params(6, 7)
    assert (spec.s, spec.r) == (0, 6)
    assert spec.order == 1

    spec = ResidueSubgroupSpec.for_params(6, 5)
    assert (spec.s, spec.r) == (1, 1)
    assert spec.order == 2

    spec = ResidueSubgroupSpec.for_params(6, 4)
    assert (spec.s, spec.r) == (1, 2)
    assert spec.order == 4

    spec = ResidueSubgroupSpec.for_params(7, 3)
    assert (spec.s, spec.r) == (2, 1)
    assert spec.order == math.factorial(3) * math.factorial(2) ** 2  # 24


def test_residue_classes_partition():
    spec = ResidueSubgroupSpec.for_params(6, 4)
    classes = spec.residue_classes()
    flat = sorted(x for cls in classes for x in cls)
    assert flat == list(range(1, 7))
    assert sorted(map(tuple, classes)) == [(1, 5), (2, 6), (3,), (4,)]


def test_subgroup_enumeration_matches_membership():
    for n, q in ((6, 4), (6, 5), (6, 3), (7, 3)):
        spec = ResidueSubgroupSpec.for_params(n, q)
        K = subgroup_K(spec)
        assert K.size == spec.order
        expect = {p for p in itertools.permutations(range(1, n + 1)) if spec.contains(p)}
        assert set(K.members) == expect
        # closed under composition and inverse (it really is a subgroup)
        mem = set(K.members)
        for a in list(mem)[:6]:
            assert inverse(a) in mem
            for b in list(mem)[:6]:
                assert compose(a, b) in mem


def _refuse_enumeration(monkeypatch):
    # enumerating K starts from its residue classes; a refusal from |K| never
    # gets that far
    def enumerate_k(*args, **kwargs):
        raise AssertionError("K was enumerated")

    monkeypatch.setattr(ResidueSubgroupSpec, "residue_classes", enumerate_k)


def test_subgroup_budget(monkeypatch):
    spec = ResidueSubgroupSpec.for_params(12, 2)
    assert spec.order == 518_400
    _refuse_enumeration(monkeypatch)
    with pytest.raises(BudgetExceeded, match=r"^\|K\| = 518400 exceeds budget 100000$"):
        subgroup_K(spec)


# ---------------------------------------------------------------------------
# labels and syndromes


def test_label_sum_is_constant_over_permutations():
    fspec = field_make(5)
    n = 6
    want = oracle_label_sum(n, fspec)
    # the multiset of labels is permutation-invariant, so any reordering sums
    # to the same field element; spot check directly
    add = fspec.tables()[0]
    for p in list(itertools.permutations(range(1, n + 1)))[:24]:
        acc = 0
        for i in p:
            acc = add[acc][i % 5]
        assert acc == want


PACKING_QS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32]


@pytest.mark.parametrize("q", PACKING_QS)
def test_syndrome_packing_adds_field_wise(q):
    # the DP's packed syndromes against galoistools sums, for widths 1..6
    spec = field_make(q)
    rng = random.Random(q)
    for width in range(1, 7):
        check = MatrixGF(spec, [[rng.randrange(q) for _ in range(2)] for _ in range(width)])
        table = SyndromeTable(check, ones_row=False)
        vectors = [tuple(rng.randrange(q) for _ in range(width)) for _ in range(40)]
        vectors += [(0,) * width, (q - 1,) * width]
        zero = table._pack((0,) * width)
        for x in vectors:
            assert table._digits(table._pack(x)) == x
            assert table._add_index(table._pack(x), zero) == table._pack(x)
            for y in vectors[:8]:
                total = table._add_index(table._pack(x), table._pack(y))
                want = tuple(oracle_add(spec, a, b) for a, b in zip(x, y))
                assert table._digits(total) == want, (q, x, y)
                assert (table._pack(x) < table._pack(y)) == (x < y)


@pytest.mark.parametrize("q", PACKING_QS)
def test_dense_translation_adds_field_wise(q):
    # translating a dense table by a moves the field of each x to x + a,
    # with x + a from galoistools sums, for widths 1..4
    spec = field_make(q)
    rng = random.Random(q)
    for width in range(1, 5):
        check = MatrixGF(spec, [[rng.randrange(q) for _ in range(2)] for _ in range(width)])
        table = SyndromeTable(check, ones_row=False)
        vectors = {tuple(rng.randrange(q) for _ in range(width)) for _ in range(12)}
        vectors |= {(0,) * width, (q - 1,) * width}
        # 2 cosets of K in S_2: each field holds 2 bits
        fields = {x: rng.randrange(1, 4) for x in vectors}
        dense = table._to_dense({table._pack(x): c for x, c in fields.items()})
        for a in sorted(vectors)[:3] + [(q - 1,) * width]:
            moved = {
                tuple(oracle_add(spec, s, t) for s, t in zip(x, a)): c for x, c in fields.items()
            }
            want = table._to_dense({table._pack(x): c for x, c in moved.items()})
            assert table._translate(dense, table._pack(a)) == want, (q, width, a)


def systematic_code(q, a_block, ones_in_dual):
    """[I_k | A] over GF(q).  With ones_in_dual the last entry of each row is
    replaced so that the row sums to zero, which puts the all-ones vector in
    the dual."""
    spec = field_make(q)
    add, _, neg, _ = spec.tables()
    rows = []
    for i, tail in enumerate(a_block):
        row = [int(i == j) for j in range(len(a_block))] + list(tail)
        if ones_in_dual:
            acc = 0
            for x in row[:-1]:
                acc = add[acc][x]
            row[-1] = neg[acc]
        rows.append(row)
    return LinearCode(spec, rows)


def shape_code(n, q, ones_row):
    """RS when n <= q, extended RS when n = q + 1, a seeded random
    systematic code otherwise or when the ones row is asked for and the
    (extended) RS code has no full-weight dual codeword."""
    k = max(1, n // 2)
    if n <= q + 1:
        code = reed_solomon(q, n, k) if n <= q else extended_rs(q, k)
        if not ones_row:
            return code
        w = find_full_weight_dual_codeword(code, seed=1)
        if w is not None:
            return normalize_first_row_ones(code, w)
    rng = random.Random(n * 100 + q)
    a_block = [[rng.randrange(q) for _ in range(n - k)] for _ in range(k)]
    return systematic_code(q, a_block, ones_in_dual=True)


def table_size(table):
    """The entries of a SyndromeTable's sparse tables plus the q^w fields of
    its dense ones."""
    fields = table._fields
    return sum(len(t) if type(t) is dict else fields for t in table.tables)


def _check_against_the_lex_walk(factor=DENSE_FACTOR):
    """Per syndrome, the DP's coset count and the DFS's representatives
    equal the buckets of a lex walk of S_n, for every shape n <= 8,
    q <= n + 1, and the tables stay within the docstring's bound at
    DENSE_FACTOR = factor; returns every table built."""
    built = []
    for n, q in itertools.product(range(2, 9), range(2, 10)):
        if q > n + 1 or not is_prime_power(q):
            continue
        walk = oracle_coset_representatives(n, q)
        assert len(walk) == math.factorial(n) // ResidueSubgroupSpec.for_params(n, q).order
        bound = max(factor, 1) * (1 + n * len(walk))
        for ones_row in (False, True):
            code = shape_code(n, q, ones_row)
            counts, table = syndrome_buckets(code, ones_row)
            want = {}
            for rep in walk:
                want.setdefault(oracle_syndrome(rep, table.check), []).append(rep)
            assert counts == {syn: len(reps) for syn, reps in want.items()}, (n, q, ones_row)
            for syn, reps in want.items():
                assert table.representatives(syn) == reps, (n, q, ones_row, syn)
            if ones_row:
                assert table.check.rows[0] == (1,) * n
                assert {syn[0] for syn in counts} == {oracle_label_sum(n, code.spec)}
            if factor < math.inf:
                assert table_size(table) <= bound, (n, q, ones_row)
            built.extend(table.tables)
    return built


def test_coset_representatives_match_the_lex_walk():
    tables = _check_against_the_lex_walk()
    # at the default threshold both forms occur
    assert {type(t) for t in tables} == {dict, int}


@pytest.mark.parametrize("factor,form", [(0, dict), (math.inf, int)], ids=["sparse", "dense"])
def test_lex_walk_holds_in_either_table_form(monkeypatch, factor, form):
    # the threshold forced so that every state is sparse, or every one dense
    monkeypatch.setattr("permcodes.perms.DENSE_FACTOR", factor)
    assert {type(t) for t in _check_against_the_lex_walk(factor)} == {form}


@pytest.mark.parametrize("q", [3, 4])
@pytest.mark.parametrize("factor,form", [(0, dict), (math.inf, int)], ids=["sparse", "dense"])
def test_zero_shift_takes_the_general_path(monkeypatch, q, factor, form):
    # column 3 is zero, so each of its labels shifts by the zero vector, and
    # with n >= q label 0 does at every position; both add w like any move
    monkeypatch.setattr("permcodes.perms.DENSE_FACTOR", factor)
    n = 6
    check = MatrixGF(field_make(q), [[1, 2, 0, 1, 1, 2], [0, 1, 0, 2, 1, 1]])
    table = SyndromeTable(check, ones_row=False)
    assert {type(t) for t in table.tables} == {form}
    assert 0 in {w for moves in table._moves for _, _, w in moves}
    want = {}
    for rep in oracle_coset_representatives(n, q):
        want.setdefault(oracle_syndrome(rep, check), []).append(rep)
    assert table.counts == {syn: len(reps) for syn, reps in want.items()}
    for syn, reps in want.items():
        assert table.representatives(syn) == reps, (q, syn)


def test_coset_representatives_cover_everything():
    # n = 6, q = 4: |K| = 4, 180 cosets; the K-translates of every bucket's
    # representatives cover S_6 once
    n, q = 6, 4
    code = shape_code(n, q, ones_row=True)
    counts, table = syndrome_buckets(code)
    spec = ResidueSubgroupSpec.for_params(n, q)
    assert sum(counts.values()) == math.factorial(n) // spec.order == 180
    K = list(subgroup_K(spec).members)
    seen = set()
    for syn in counts:
        for rep in table.representatives(syn):
            for g in K:
                t = compose(g, rep)
                assert t not in seen
                seen.add(t)
    assert len(seen) == math.factorial(n)


def test_listing_representatives_leaves_no_cycle():
    # reference counting alone frees the table and its DP tables once the
    # last reference goes: nothing in the listing refers back to it
    gc.disable()
    try:
        counts, table = syndrome_buckets(reed_solomon(9, 9, 5), False)
        syn = max(counts, key=counts.get)
        assert len(table.representatives(syn)) == counts[syn]
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()


def _check_largest_bucket(code, ones_row):
    """The construction's bucket is the oracle's largest, and the DP's
    tables hold at most one entry or field per label suffix; returns the
    table, its number of fields Q and the coset count."""
    n, q = code.n, code.spec.q
    gamma = [identity_perm(n)]
    pc, cert = construct_permutation_code(code, gamma, assume_ones_row=ones_row)
    check = parity_check_with_ones_row(code) if ones_row else parity_check(code)
    syn, members = oracle_largest_bucket(gamma, check, n, q)
    assert cert.syndrome == syn
    assert list(pc.members) == members
    # each entry is a distinct label suffix; a dense table counts as its
    # q^w fields, built only where they are at most DENSE_FACTOR times its
    # suffixes
    _, table = syndrome_buckets(code, ones_row)
    assert table_size(table) <= n * cert.coset_count
    return table, q ** (check.nrows - ones_row), cert.coset_count


def test_low_rate_syndrome_table_stays_sparse():
    # r = 6: q^r = 117,649 syndromes against 7! = 5,040 cosets
    table, fields, cosets = _check_largest_bucket(reed_solomon(7, 7, 1), False)
    assert fields > DENSE_FACTOR * cosets
    assert all(type(t) is dict for t in table.tables)


def test_r0_syndrome_table_is_dense_with_one_field():
    # r = 0 after the ones row: one syndrome, every coset in it, so every
    # state's table is one field holding its arrangement count
    table, fields, _ = _check_largest_bucket(reed_solomon(5, 5, 4), True)
    assert fields == table._fields == 1
    assert all(type(t) is int for t in table.tables)


def test_syndrome_buckets_memory_on_the_low_rate_shape():
    # [7,1]_7 without the ones row: 7^6 syndromes, so every table is a
    # sparse dict, and these dicts are all the per-syndrome memory it holds
    tracemalloc.start()
    try:
        counts, table = syndrome_buckets(reed_solomon(7, 7, 1), False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == math.factorial(7)
    assert peak < 1_200_000, peak


def test_syndrome_buckets_memory_on_the_construct_sweep_shape():
    # the construct-sweep shape [9,5]_9: dense tables of 729 19-bit fields
    # in place of nearly full dicts (about 5.5 MB of them)
    code = reed_solomon(9, 9, 5)
    code = normalize_first_row_ones(code, find_full_weight_dual_codeword(code, seed=1))
    tracemalloc.start()
    try:
        counts, table = syndrome_buckets(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(counts.values()) == math.factorial(9)
    assert peak < 2_000_000, peak


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_bucket_is_sound(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]), label="q")
    n = data.draw(st.integers(2, 7), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    ones_row = data.draw(st.booleans(), label="ones_row")
    a_block = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n - k, max_size=n - k),
            min_size=k,
            max_size=k,
        ),
        label="A",
    )
    code = systematic_code(q, a_block, ones_in_dual=ones_row)
    d = min_distance(code)
    kspec = ResidueSubgroupSpec.for_params(n, q)
    seed = data.draw(st.integers(0, 2**16), label="seed")
    gamma = max_code_in_K(kspec, d, mode="greedy", seed=seed).members
    counts, table = syndrome_buckets(code, ones_row)
    syn = data.draw(st.sampled_from(sorted(counts)), label="syndrome")
    bucket = [compose(g, rep) for rep in table.representatives(syn) for g in gamma]
    assert len(set(bucket)) == counts[syn] * len(gamma)
    assert code_min_distance(bucket) >= d


# ---------------------------------------------------------------------------
# binary codes and lifting


def test_max_binary_code_frozen_values():
    # r, d, expected A_2(r, d); caps argued in comments
    cases = [
        (2, 1, 4),  # every word
        (3, 1, 8),
        (2, 2, 2),  # dropping one bit must stay injective: <= 2^(r-1)
        (3, 2, 4),
        (4, 2, 8),
        (3, 3, 2),  # averaging cap: two words at distance 3 in 3 bits max
        (4, 3, 2),
        (4, 4, 2),
        (8, 6, 2),  # averaging cap 2*floor(6/4) = 2
        (6, 3, 8),  # = A_2(7, 4) by parity extension, Plotkin cap 2*floor(4/1) = 8
        (7, 3, 16),  # sphere-packing cap 2^7 / (1 + 7) = 16
        (8, 4, 16),  # = A_2(7, 3) by parity extension
        (16, 12, 2),  # averaging cap 2*floor(12/8) = 2
    ]
    for r, d, want in cases:
        size, witness = max_binary_code(r, d)
        assert size == want
        assert len(witness) == want
        assert witness[0] == (0,) * r  # zero word pinned
        for a, b in itertools.combinations(witness, 2):
            assert sum(x != y for x, y in zip(a, b)) >= d


def test_max_binary_code_matches_classical_values():
    # every (r, t) with r <= 12 outside the three-word range that the clique
    # search decides within 2 * 10^6 work: t <= 2 gives every word (t = 1)
    # or the even-weight words (t = 2), the rest are the classical table
    known = {(r, 1): 2**r for r in range(2, 13)}
    known.update({(r, 2): 2 ** (r - 1) for r in range(3, 13)})
    known.update({
        (5, 3): 4, (6, 3): 8, (6, 4): 4, (7, 3): 16, (7, 4): 8, (8, 4): 16,
        (8, 5): 4, (9, 5): 6, (9, 6): 4, (10, 6): 6, (11, 7): 4, (12, 8): 4,
    })
    assert len(known) == 33 and not any(2 * r < 3 * t for r, t in known)
    for (r, t), want in known.items():
        size, witness = max_binary_code(r, t)
        words = {int("".join(map(str, w)), 2) for w in witness}
        assert size == want == len(words), (r, t)
        # pairwise distance >= t: no word lies within t - 1 flips of another
        flips = [sum(1 << b for b in bits)
                 for i in range(1, t) for bits in itertools.combinations(range(r), i)]
        assert not any(w ^ f in words for w in words for f in flips), (r, t)
    # parity extension: A_2(r, 2s - 1) = A_2(r + 1, 2s)
    odd = [(r, t) for r, t in known if t % 2 and (r + 1, t + 1) in known]
    assert len(odd) == 16
    for r, t in odd:
        assert known[r, t] == known[r + 1, t + 1]


def test_max_binary_code_budget_and_validation():
    with pytest.raises(ParameterError):
        max_binary_code(0, 1)
    with pytest.raises(BudgetExceeded):
        max_binary_code(14, 1)  # 2^14 - 1 candidate words at d = 1


def test_max_binary_code_refuses_from_the_count_alone():
    # sum of C(r, w) for w >= 1 words, refused before any is built
    for r, count in ((24, 16_777_215), (60, 1_152_921_504_606_846_975)):
        start = time.perf_counter()
        with pytest.raises(
            BudgetExceeded, match=rf"^{count} candidate words exceed the clique budget 4096$"
        ):
            max_binary_code(r, 1)
        assert time.perf_counter() - start < 0.1


def test_max_binary_code_has_no_length_cap():
    # r = 32 has 2^32 words, but only 33 of them weigh at least 31
    size, witness = max_binary_code(32, 31)
    assert size == 2
    assert witness[0] == (0,) * 32 and sum(witness[1]) >= 31


def test_three_word_closed_form_matches_the_clique():
    # 2r < 3t <= 3r: no three words fit, and the two-word witness is the one
    # the clique search returns, size and tuple alike
    pairs = [
        (r, t)
        for r in range(1, 19)
        for t in range(1, r + 1)
        if 2 * r < 3 * t
        and sum(math.comb(r, w) for w in range(t, r + 1)) <= MAX_CLIQUE_VERTICES
    ]
    assert len(pairs) == 60
    for r, t in pairs:
        assert max_binary_code(r, t) == _binary_clique(r, t), (r, t)


def test_three_word_closed_form_beyond_the_vertex_budget():
    # A_2(16, 11): 6,885 words weigh >= 11, past the clique's vertex budget
    with pytest.raises(BudgetExceeded):
        _binary_clique(16, 11)
    size, witness = max_binary_code(16, 11)
    assert size == 2 == len(witness)
    assert witness[0] == (0,) * 16
    assert sum(a != b for a, b in zip(*witness)) >= 11


def test_three_word_boundary_goes_through_the_clique(monkeypatch):
    # 3t = 2r admits three words: A_2(3, 2) = 4 is {000, 011, 101, 110}
    calls = []
    monkeypatch.setattr("permcodes.combinat._max_clique",
                        lambda neigh: calls.append(neigh) or _max_clique(neigh))
    size, witness = max_binary_code(3, 2)
    assert size == 4 and len(calls) == 1
    assert witness == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_binary_lift_doubles_distances_exhaustively():
    # the involution lift turns binary distance t into permutation distance 2t
    for r in (1, 2, 3, 4):
        n = 2 * r
        words = list(itertools.product((0, 1), repeat=r))
        pairs = [(2 * i + 1, 2 * i + 2) for i in range(r)]
        lifted = [binary_lift(w, n, pairs) for w in words]
        for (wa, pa), (wb, pb) in itertools.combinations(zip(words, lifted), 2):
            bin_d = sum(x != y for x, y in zip(wa, wb))
            assert perm_hamming(pa, pb) == 2 * bin_d


def test_binary_lift_validation():
    pairs = ((1, 2), (3, 4))
    assert binary_lift((1, 0), 4, pairs) == (2, 1, 3, 4)
    assert binary_lift((1, 1), 4, pairs) == (2, 1, 4, 3)
    with pytest.raises(ParameterError):
        binary_lift((1, 0), 4, ((1, 2), (2, 3)))  # overlapping pairs
    with pytest.raises(ParameterError):
        binary_lift((2,), 2, ((1, 2),))  # not a bit


def test_lift_pairs_the_residue_classes():
    # classes {1,4},{2,5},{3,6}: A_2(3, 3) = 2 lifts to the identity and all
    # three transpositions at once
    pc, binary_size = lift_code_into_K(ResidueSubgroupSpec.for_params(6, 3), 6)
    assert binary_size == 2
    assert pc.members == ((1, 2, 3, 4, 5, 6), (4, 5, 6, 1, 2, 3))
    message = re.escape("class (1, 4, 7) has size 3; subgroup is not (S_2)^r")
    with pytest.raises(ParameterError, match=f"^{message}$"):
        lift_code_into_K(ResidueSubgroupSpec.for_params(7, 3), 6)


def test_lift_code_into_K():
    spec = ResidueSubgroupSpec.for_params(6, 3)
    pc, binary_size = lift_code_into_K(spec, 4)
    assert binary_size == 4  # best 3-bit code at distance ceil(4/2) = 2
    assert pc.size == 4
    assert code_min_distance(pc) >= 4
    for p in pc:
        assert spec.contains(p)


def test_lift_into_trivial_K():
    spec = ResidueSubgroupSpec.for_params(6, 7)  # K = {identity}
    pc, binary_size = lift_code_into_K(spec, 3)
    assert pc.size == 1 and binary_size == 1


# ---------------------------------------------------------------------------
# exact maxima inside K, cross-checked by full subset scan


@pytest.mark.parametrize("n,q", [(6, 4), (6, 3)])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_max_code_in_K_matches_subset_oracle(n, q, d):
    spec = ResidueSubgroupSpec.for_params(n, q)
    members = list(subgroup_K(spec).members)
    want = oracle_max_subset_size(members, d)
    got = max_code_in_K(spec, d, mode="exact")
    assert got.size == want
    assert code_min_distance(got) >= d
    for p in got:
        assert spec.contains(p)


def test_max_code_in_K_refuses_a_large_K_without_enumerating_it(monkeypatch):
    # greedy mode enumerates K, so past the subgroup budget subgroup_K refuses
    with monkeypatch.context() as patch:
        _refuse_enumeration(patch)
        with pytest.raises(
            BudgetExceeded, match=r"^\|K\| = 518400 exceeds budget 100000$"
        ):
            max_code_in_K(ResidueSubgroupSpec.for_params(12, 2), 3, mode="greedy", seed=1)

    # exact mode refuses any K with more vertices than the clique budget
    spec = ResidueSubgroupSpec.for_params(13, 3)
    assert MAX_CLIQUE_VERTICES < spec.order == 69_120

    def enumerate_k(*args, **kwargs):
        raise AssertionError("K was enumerated")

    monkeypatch.setattr("permcodes.perms.subgroup_K", enumerate_k)
    with pytest.raises(BudgetExceeded,
                       match=r"^\|K\| = 69120 is too large for exact clique search$"):
        max_code_in_K(spec, 3)


@pytest.mark.parametrize("seed", range(40))
def test_max_clique_matches_networkx(seed):
    import networkx as nx

    rng = random.Random(seed)
    n = rng.randint(1, 40)
    density = rng.uniform(0.2, 0.8)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    neigh = [0] * n
    for i, j in itertools.combinations(range(n), 2):
        if rng.random() < density:
            graph.add_edge(i, j)
            neigh[i] |= 1 << j
            neigh[j] |= 1 << i
    clique = _max_clique(neigh)
    _, size = nx.max_weight_clique(graph, weight=None)
    assert len(clique) == size
    assert all(graph.has_edge(u, v) for u, v in itertools.combinations(clique, 2))


def test_clique_work_budget(monkeypatch):
    # A_2(6, 3) = 8: its 42 candidate words take 468 colorings in all, so a
    # budget of exactly that passes and one less stops the search
    work = 468
    words = [w for w in itertools.product((0, 1), repeat=6) if sum(w) >= 3]
    neigh = _distance_graph(words, 3)
    monkeypatch.setattr("permcodes.combinat.MAX_CLIQUE_WORK", work)
    assert len(_max_clique(neigh)) == 7
    monkeypatch.setattr("permcodes.combinat.MAX_CLIQUE_WORK", work - 1)
    with pytest.raises(BudgetExceeded,
                       match=rf"^clique search colors more than {work - 1} candidates$"):
        _max_clique(neigh)
    with pytest.raises(BudgetExceeded):
        max_binary_code(6, 3)
    # the empty graph colors nothing, so no budget stops it
    monkeypatch.setattr("permcodes.combinat.MAX_CLIQUE_WORK", 0)
    assert _max_clique([]) == []


def test_clique_search_leaves_no_cycle(monkeypatch):
    # the search recurses through a closure over neigh: once it returns or
    # raises, reference counting alone lets go of neigh
    words = [w for w in itertools.product((0, 1), repeat=6) if sum(w) >= 3]
    neigh = _distance_graph(words, 3)
    gc.disable()
    try:
        before = sys.getrefcount(neigh)
        assert len(_max_clique(neigh)) == 7
        assert sys.getrefcount(neigh) == before
        monkeypatch.setattr("permcodes.combinat.MAX_CLIQUE_WORK", 1)
        with pytest.raises(BudgetExceeded):
            _max_clique(neigh)
        assert sys.getrefcount(neigh) == before
    finally:
        gc.enable()


def test_distance_search_leaves_no_cycle():
    # the information-set search recurses through a closure over its scaled
    # rows: once it returns, reference counting alone frees them
    code = reed_solomon(16, 12, 5)
    gc.disable()
    try:
        gc.collect()
        assert min_distance(code) == 8
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_distance_graph_matches_pair_loop_on_bit_words(data):
    r = data.draw(st.integers(1, 10), label="r")
    ints = data.draw(st.sets(st.integers(0, 2**r - 1)), label="words")
    words = [tuple(x >> (r - 1 - b) & 1 for b in range(r)) for x in sorted(ints)]
    d = data.draw(st.integers(-1, r + 1), label="d")
    assert _distance_graph(words, d) == oracle_distance_graph(words, d)


@settings(max_examples=100, deadline=None)
@given(permutation_lists(), st.data())
def test_distance_graph_matches_pair_loop_on_permutations(rows, data):
    n = len(rows[0]) if rows else 0
    d = data.draw(st.integers(-1, n + 1), label="d")
    assert _distance_graph(rows, d) == oracle_distance_graph(rows, d)


def test_max_code_in_K_greedy_is_valid_and_seeded():
    spec = ResidueSubgroupSpec.for_params(6, 3)
    a = max_code_in_K(spec, 4, mode="greedy", seed=11)
    b = max_code_in_K(spec, 4, mode="greedy", seed=11)
    assert a.members == b.members
    assert code_min_distance(a) >= 4
    with pytest.raises(ParameterError):
        max_code_in_K(spec, 4, mode="greedy")  # no seed


@pytest.mark.parametrize("n,q", [(6, 2), (6, 3), (7, 3), (8, 3), (8, 4)])
def test_max_code_in_K_greedy_matches_pairwise_pass(n, q):
    spec = ResidueSubgroupSpec.for_params(n, q)
    members = list(subgroup_K(spec).members)
    for d in range(1, n + 2):
        for seed in (1, 2, 3):
            got = max_code_in_K(spec, d, mode="greedy", seed=seed)
            assert got.members == tuple(sorted(oracle_greedy_code(members, d, seed)))


# ---------------------------------------------------------------------------
# the construction itself


def build_fixture_a():
    code = reed_solomon(7, 6, 4)
    w = find_full_weight_dual_codeword(code, seed=7)
    return normalize_first_row_ones(code, w)


def test_construct_fixture_and_certificate():
    # the whole recipe takes the steps that build_fixture_a takes by hand
    pc, cert, work = construct(reed_solomon(7, 6, 4), 3, gamma="identity", seed=7)
    assert work.generator.rows == build_fixture_a().generator.rows
    by_hand, by_hand_cert = construct_permutation_code(work, [identity_perm(6)], seed=7)
    assert (by_hand.members, by_hand_cert) == (pc.members, cert)
    assert cert.guaranteed_floor == 103  # ceil(720 / 7)
    assert pc.size >= 103
    assert cert.bucket_size == pc.size
    assert cert.verified_distance >= 3
    assert code_min_distance(pc) == cert.verified_distance
    assert cert.to_text() == (
        "n: 6\nq: 7\nk: 4\nd: 3\nones_row: true\nsubgroup_order: 1\n"
        "gamma_size: 1\ncoset_count: 720\nsweep_size: 720\nsyndrome: 0 1\n"
        "bucket_size: 105\nverified_distance: 3\nguaranteed_floor: 103\nseed: 7\n"
    )


def test_certificate_text_renders_false_none_and_inf():
    cert = ConstructionCertificate(
        n=2, q=2, k=1, d=2, ones_row=False, subgroup_order=1, gamma_size=1,
        coset_count=2, sweep_size=2, syndrome=(1,), bucket_size=1,
        verified_distance=math.inf, guaranteed_floor=1, seed=None,
    )
    assert cert.to_text() == (
        "n: 2\nq: 2\nk: 1\nd: 2\nones_row: false\nsubgroup_order: 1\n"
        "gamma_size: 1\ncoset_count: 2\nsweep_size: 2\nsyndrome: 1\n"
        "bucket_size: 1\nverified_distance: inf\nguaranteed_floor: 1\nseed: none\n"
    )


def test_construct_accepts_gamma_as_an_iterator():
    work = build_fixture_a()
    _, from_list = construct_permutation_code(work, [identity_perm(6)], seed=7)
    _, from_iter = construct_permutation_code(work, iter([identity_perm(6)]), seed=7)
    assert from_iter == from_list


def test_construct_rejects_gamma_outside_K():
    work = build_fixture_a()
    bad = [(2, 1, 3, 4, 5, 6)]  # swaps residues 2 and 1 mod 7
    outside = r"^\({}\) is outside the residue subgroup$"
    with pytest.raises(ParameterError, match=outside.format("2, 1, 3, 4, 5, 6")):
        construct_permutation_code(work, bad)
    not_a_perm = [(8, 2, 3, 4, 5, 6)]  # right residues, but not in S_6
    with pytest.raises(ParameterError, match=outside.format("8, 2, 3, 4, 5, 6")):
        construct_permutation_code(work, not_a_perm)


def test_construct_rejects_weak_gamma():
    codeB = extended_rs(5, 3)
    w = find_full_weight_dual_codeword(codeB, seed=5)
    work = normalize_first_row_ones(codeB, w)
    # K for (6, 5) is {identity, (1 6) as residue-0 swap}; that pair has
    # distance 2, below the code distance 4
    kspec = ResidueSubgroupSpec.for_params(6, 5)
    gamma = list(subgroup_K(kspec).members)
    assert len(gamma) == 2
    with pytest.raises(ParameterError, match="^gamma_prime min distance is below the code distance$"):
        construct_permutation_code(work, gamma)


def test_construct_budget():
    work = build_fixture_a()
    with pytest.raises(BudgetExceeded):
        construct_permutation_code(work, [identity_perm(6)], budget=100)


def test_construct_budget_counts_translates():
    # n = 6, q = 5: |K| = 2, so 360 cosets; two members of gamma make 720
    work, gamma, _ = build_subgroup_case(5, 6, 2, 2, seed=1)
    gamma = gamma[:2]
    _, cert = construct_permutation_code(work, gamma, budget=720)
    assert (cert.coset_count, cert.sweep_size) == (360, 720)
    with pytest.raises(BudgetExceeded, match="sweep of 720 translates exceeds budget 719"):
        construct_permutation_code(work, gamma, budget=719)


def test_construct_default_budget_is_the_cli_default():
    # [9,5,5]_9 with trivial K: 9! cosets of one translate each, past the
    # 50,000-translate default; --budget 362880 builds the 560-row code
    code = reed_solomon(9, 9, 5)
    work = normalize_first_row_ones(code, find_full_weight_dual_codeword(code, seed=1))
    with pytest.raises(
        BudgetExceeded, match=r"^sweep of 362880 translates exceeds budget 50000$"
    ):
        construct_permutation_code(work, [identity_perm(9)], seed=1)


def test_syndrome_buckets_partition_the_sweep():
    work = build_fixture_a()
    counts, table = syndrome_buckets(work)
    reps = [rep for syn in counts for rep in table.representatives(syn)]
    assert [len(table.representatives(syn)) for syn in counts] == list(counts.values())
    assert sum(counts.values()) == len(set(reps)) == 720
    # ones-row check: all syndromes share the forced first coordinate, and
    # a syndrome off that slice has no representatives
    first = oracle_label_sum(6, work.spec)
    assert {syn[0] for syn in counts} == {first}
    outside = ((first + 1) % 7,) + next(iter(counts))[1:]
    assert table.representatives(outside) == []


def build_subgroup_case(q, n, k, d, seed):
    """A random ones-row code and an exact inner code of more than one
    member inside K."""
    code = random_code_search(n, k, d, q, seed)
    work = normalize_first_row_ones(code, find_full_weight_dual_codeword(code, seed))
    kspec = ResidueSubgroupSpec.for_params(n, q)
    gamma = list(max_code_in_K(kspec, d, mode="exact").members)
    assert len(gamma) > 1
    return work, gamma, kspec


@pytest.mark.parametrize("q,n,k,d,seed", [(4, 6, 2, 4, 3), (3, 8, 4, 3, 1)])
def test_construct_bucket_matches_translate_oracle(q, n, k, d, seed):
    work, gamma, _ = build_subgroup_case(q, n, k, d, seed)
    pc, cert = construct_permutation_code(work, gamma, seed=seed)
    syn, members = oracle_largest_bucket(gamma, parity_check_with_ones_row(work), n, q)
    assert cert.syndrome == syn
    assert list(pc.members) == members


def test_construct_without_ones_row_uses_weaker_floor():
    code = reed_solomon(7, 6, 4)
    pc, cert = construct_permutation_code(code, [identity_perm(6)], assume_ones_row=False)
    # floor drops by a factor of q: ceil(720 / 49) = 15
    assert cert.guaranteed_floor == 15
    assert pc.size >= 15
    assert cert.verified_distance >= 3


# ---------------------------------------------------------------------------
# file round trips


def test_permutation_code_round_trip(tmp_path):
    pc = brute_force_max_code(4, 3)
    path = tmp_path / "pc.txt"
    write_permutation_code(pc, path)
    n, size, d, rows = read_permutation_code(path)
    assert (n, size, d) == (4, 12, 3)
    assert sorted(rows) == list(pc.members)


def test_permutation_code_infinite_distance(tmp_path):
    pc = PermutationCode(4, [identity_perm(4)])
    path = tmp_path / "one.txt"
    write_permutation_code(pc, path)
    n, size, d, rows = read_permutation_code(path)
    assert d == math.inf
    assert size == 1 and rows == [identity_perm(4)]


def test_permutation_code_parse_errors(tmp_path):
    # name: (file text, message after the path); line numbers count every line
    cases = {
        "empty.txt": ("", ": empty file"),
        "header.txt": ("4 1\n1 2 3 4\n", ":1: header must be 'n size d'"),
        "badrow.txt": ("4 1 4\n1 2 3\n", ":2: expected 4 entries, got 3"),
        "notperm.txt": ("4 1 4\n1 2 2 4\n", ":2: not a permutation of 1..4"),
        "alpha.txt": ("4 1 4\n1 2 x 4\n", ":2: non-integer token"),
        "badhead.txt": ("4 1 x\n1 2 3 4\n", ":1: bad header token"),
        # no permutation of 1..n exists for n < 1
        "negative_n.txt": ("-3 0 inf\n", ":1: header n must be at least 1"),
        "zero_n.txt": ("0 0 inf\n", ":1: header n must be at least 1"),
        "indented_comment.txt": ("   # n size d\n4 1\n", ":2: header must be 'n size d'"),
        "glued_comment.txt": ("#4 1 4\n4 z 4\n", ":2: bad header token"),
        "late_header.txt": ("\n  \t\n# code\n\n4 1\n", ":5: header must be 'n size d'"),
        "badtoken.txt": ("4 2 4\n1 2 3 4\n# next\n\n4 3 y 1\n", ":5: non-integer token"),
    }
    for name, (text, message) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_permutation_code(p)
        assert str(exc.value) == f"{p}{message}", name


def test_read_permutation_code_keeps_duplicates(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("3 2 3\n1 2 3\n1 2 3\n")
    n, size, d, rows = read_permutation_code(p)
    assert len(rows) == 2  # verifier, not parser, flags the duplicate


# ---------------------------------------------------------------------------
# input guards of the library entry points

GUARDS = {
    "compose": (lambda: compose((1, 2), (1, 2, 3)), "permutations act on different sets"),
    "perm_hamming": (lambda: perm_hamming((1, 2, 3), (1, 2)),
                     "permutations act on different sets"),
    "spec n < 1": (lambda: ResidueSubgroupSpec.for_params(0, 2), "need n >= 1 and q >= 2"),
    "spec q < 2": (lambda: ResidueSubgroupSpec.for_params(4, 1), "need n >= 1 and q >= 2"),
    "empty gamma": (lambda: construct_permutation_code(reed_solomon(5, 4, 2), []),
                    "gamma_prime must be nonempty"),
    "lift pair count": (lambda: binary_lift((1, 0), 4, ((1, 2),)), "2 bits need 2 pairs, got 1"),
    "lift entry range": (lambda: binary_lift((1,), 4, ((1, 5),)),
                         "pair entries must lie in 1..4"),
    "ball t > n": (lambda: hamming_ball_size(3, 4), "need 0 <= t <= n, got t=4, n=3"),
    "ball t < 0": (lambda: hamming_ball_size(3, -1), "need 0 <= t <= n, got t=-1, n=3"),
    "amds d < 1": (lambda: amds_lower(6, 0, 4, 1), "need d >= 1 and a2_value >= 1"),
    "amds a2 < 1": (lambda: amds_lower(6, 3, 4, 0), "need d >= 1 and a2_value >= 1"),
    "firstbound k = n": (lambda: general_firstbound(6, 3, 6, 1, ones_row=False),
                         "need 0 < k < n, got k=6, n=6"),
    "firstbound k = 0": (lambda: general_firstbound(6, 3, 0, 1, ones_row=False),
                         "need 0 < k < n, got k=0, n=6"),
    "firstbound gamma": (lambda: general_firstbound(6, 3, 2, 0, ones_row=False),
                         "gamma_size must be positive"),
    # the construction's integer floor shares the bound's checks
    "floor k = n": (lambda: pigeonhole_floor(6, 3, 6, 1, True), "need 0 < k < n, got k=6, n=6"),
    "floor k > n": (lambda: pigeonhole_floor(6, 3, 7, 1, True), "need 0 < k < n, got k=7, n=6"),
    "floor k < 0": (lambda: pigeonhole_floor(6, 3, -1, 1, True),
                    "need 0 < k < n, got k=-1, n=6"),
    "floor gamma": (lambda: pigeonhole_floor(6, 3, 2, 0, True), "gamma_size must be positive"),
    "floor gamma < 0": (lambda: pigeonhole_floor(6, 3, 2, -2, True),
                        "gamma_size must be positive"),
    "envelope n < 3": (lambda: envelope_new_old(2, 2), "need n >= 3"),
    "matrix no rows": (lambda: MatrixGF(field_make(3), []),
                       "matrix needs at least one row and column"),
    "matrix ragged": (lambda: MatrixGF(field_make(3), [[1, 0], [1]]), "ragged rows"),
    "code field": (lambda: LinearCode(field_make(3), MatrixGF(field_make(5), [[1, 0, 1]])),
                   "generator matrix belongs to a different field spec"),
}


@pytest.mark.parametrize("case", GUARDS)
def test_input_guard_raises_its_message(case):
    call, message = GUARDS[case]
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        call()
