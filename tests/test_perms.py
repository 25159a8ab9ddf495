"""Permutation machinery: group ops, subgroups, cliques, the construction.

The frozen maximum-code sizes below are pinned independently of the clique
engine: a concrete group witness provides the lower bound and the factorial
upper bound n!/(d-1)! provides the matching cap, so each equality is forced
before brute_force_M is ever consulted.
"""

import itertools
import math

import pytest

from permcodes import perms
from permcodes.bounds import singleton_like_upper
from permcodes.errors import (
    BudgetExceeded,
    ParameterError,
    ParseError,
    PreconditionViolated,
    SpecMismatch,
    VerificationFailed,
)
from permcodes.gf import field_make
from permcodes.linear import (
    find_full_weight_dual_codeword,
    min_distance,
    normalize_first_row_ones,
    parity_check_with_ones_row,
    random_code_search,
)
from permcodes.mds import extended_rs, reed_solomon
from permcodes.perms import (
    PermutationCode,
    ResidueSubgroupSpec,
    all_permutations,
    binary_lift,
    brute_force_M,
    brute_force_max_code,
    code_min_distance,
    compose,
    construct_permutation_code,
    coset_representatives,
    default_lift_pairs,
    identity_perm,
    inverse,
    involution_pairs,
    label_sum,
    lift_code_into_K,
    max_binary_code,
    max_code_in_K,
    perm_hamming,
    phi,
    read_permutation_code,
    subgroup_K,
    syndrome_buckets,
    write_permutation_code,
)

from oracles import (
    oracle_code_distance,
    oracle_coset_representatives,
    oracle_largest_bucket,
    oracle_max_subset_size,
    oracle_perm_distance,
)


# ---------------------------------------------------------------------------
# group basics


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
    s3 = list(all_permutations(3))
    for a in s3:
        for b in s3:
            for t in s3:
                assert perm_hamming(compose(a, t), compose(b, t)) == perm_hamming(a, b)


def test_all_permutations_count():
    assert len(list(all_permutations(4))) == 24
    assert sorted(all_permutations(3))[0] == (1, 2, 3)


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
    members = [p for p in all_permutations(4) if p[0] != 2]
    assert code_min_distance(members) == oracle_code_distance(members)
    assert code_min_distance([(1, 2, 3)]) == math.inf
    assert code_min_distance([]) == math.inf


# ---------------------------------------------------------------------------
# frozen maxima, pinned by witness + cap


def alternating_group(n):
    out = []
    for p in all_permutations(n):
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
        expect = {p for p in all_permutations(n) if spec.contains(p)}
        assert set(K.members) == expect
        # closed under composition and inverse (it really is a subgroup)
        mem = set(K.members)
        for a in list(mem)[:6]:
            assert inverse(a) in mem
            for b in list(mem)[:6]:
                assert compose(a, b) in mem


def test_subgroup_budget():
    spec = ResidueSubgroupSpec.for_params(7, 3)
    with pytest.raises(BudgetExceeded):
        subgroup_K(spec, budget=10)


def test_coset_representatives_cover_everything():
    n, q = 6, 4
    spec = ResidueSubgroupSpec.for_params(n, q)
    reps = coset_representatives(n, q)
    assert len(reps) == math.factorial(n) // spec.order
    # distinct cosets: rep_i o rep_j^-1 outside K for i != j
    seen = set()
    K = list(subgroup_K(spec).members)
    for rep in reps:
        for g in K:
            t = compose(g, rep)
            assert t not in seen
            seen.add(t)
    assert len(seen) == math.factorial(n)


def test_coset_representatives_match_the_lex_walk():
    # the lexicographically first member of every coset, in the order a lex
    # walk of S_n meets the cosets
    for n in range(1, 9):
        for q in range(2, n + 2):
            assert coset_representatives(n, q) == oracle_coset_representatives(n, q)


def test_coset_budget_counts_cosets():
    assert len(coset_representatives(6, 4, budget=180)) == 180
    with pytest.raises(BudgetExceeded):
        coset_representatives(6, 4, budget=179)


# ---------------------------------------------------------------------------
# labels and syndromes


def test_label_sum_is_constant_over_permutations():
    fspec = field_make(5)
    n = 6
    want = label_sum(n, fspec)
    # the multiset of labels is permutation-invariant, so any reordering sums
    # to the same field element; spot check directly
    add = fspec.tables()[0]
    for p in list(all_permutations(n))[:24]:
        acc = 0
        for i in p:
            acc = add[acc][i % 5]
        assert acc == want


def test_phi_respects_check_matrix_shape():
    code = reed_solomon(7, 6, 2)
    w = find_full_weight_dual_codeword(code, seed=1)
    norm = normalize_first_row_ones(code, w)
    from permcodes.linear import parity_check_with_ones_row

    h = parity_check_with_ones_row(norm)
    fspec = norm.spec
    want_first = label_sum(6, fspec)
    for p in list(all_permutations(6))[:40]:
        syn = phi(p, h)
        assert len(syn) == h.nrows
        assert syn[0] == want_first


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
    ]
    for r, d, want in cases:
        size, witness = max_binary_code(r, d)
        assert size == want
        assert len(witness) == want
        assert witness[0] == (0,) * r  # zero word pinned
        for a, b in itertools.combinations(witness, 2):
            assert sum(x != y for x, y in zip(a, b)) >= d


def test_max_binary_code_budget_and_validation():
    with pytest.raises(ParameterError):
        max_binary_code(0, 1)
    with pytest.raises(BudgetExceeded):
        max_binary_code(14, 1)  # 2^14 - 1 candidate words at d = 1


def test_binary_lift_doubles_distances_exhaustively():
    # the involution lift turns binary distance t into permutation distance 2t
    for r in (1, 2, 3, 4):
        n = 2 * r
        words = list(itertools.product((0, 1), repeat=r))
        lifted = [binary_lift(w, n=n) for w in words]
        for (wa, pa), (wb, pb) in itertools.combinations(zip(words, lifted), 2):
            bin_d = sum(x != y for x, y in zip(wa, wb))
            assert perm_hamming(pa, pb) == 2 * bin_d


def test_binary_lift_validation():
    assert binary_lift((1, 0), n=4) == (2, 1, 3, 4)
    assert binary_lift((1, 1), n=4) == (2, 1, 4, 3)
    with pytest.raises(ParameterError):
        binary_lift((1, 0), n=4, pairs=((1, 2), (2, 3)))  # overlapping pairs
    with pytest.raises(ParameterError):
        binary_lift((2,), n=2)  # not a bit
    assert default_lift_pairs(3) == ((1, 2), (3, 4), (5, 6))


def test_involution_pairs():
    spec = ResidueSubgroupSpec.for_params(6, 3)  # classes {1,4},{2,5},{3,6}
    assert involution_pairs(spec) == ((1, 4), (2, 5), (3, 6))
    with pytest.raises(SpecMismatch):
        involution_pairs(ResidueSubgroupSpec.for_params(7, 3))  # a class of 3


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


def test_max_code_in_K_greedy_is_valid_and_seeded():
    spec = ResidueSubgroupSpec.for_params(6, 3)
    a = max_code_in_K(spec, 4, mode="greedy", seed=11)
    b = max_code_in_K(spec, 4, mode="greedy", seed=11)
    assert a.members == b.members
    assert code_min_distance(a) >= 4
    with pytest.raises(ParameterError):
        max_code_in_K(spec, 4, mode="greedy")  # no seed


# ---------------------------------------------------------------------------
# the construction itself


def build_fixture_a():
    code = reed_solomon(7, 6, 4)
    w = find_full_weight_dual_codeword(code, seed=7)
    return normalize_first_row_ones(code, w)


def test_construct_fixture_and_certificate():
    work = build_fixture_a()
    gamma = [identity_perm(6)]
    pc, cert = construct_permutation_code(work, gamma, assume_ones_row=True, seed=7)
    assert cert.guaranteed_floor == 103  # ceil(720 / 7)
    assert pc.size >= 103
    assert cert.bucket_size == pc.size
    assert cert.verified_distance >= 3
    assert code_min_distance(pc) == cert.verified_distance
    text = cert.to_text()
    assert "guaranteed_floor: 103" in text
    assert f"bucket_size: {pc.size}" in text


def test_construct_accepts_gamma_as_an_iterator():
    work = build_fixture_a()
    _, from_list = construct_permutation_code(work, [identity_perm(6)], seed=7)
    _, from_iter = construct_permutation_code(work, iter([identity_perm(6)]), seed=7)
    assert from_iter == from_list


def test_construct_rejects_gamma_outside_K():
    work = build_fixture_a()
    bad = [(2, 1, 3, 4, 5, 6)]  # swaps residues 2 and 1 mod 7
    with pytest.raises(PreconditionViolated):
        construct_permutation_code(work, bad)


def test_construct_rejects_weak_gamma():
    codeB = extended_rs(5, 3)
    w = find_full_weight_dual_codeword(codeB, seed=5)
    work = normalize_first_row_ones(codeB, w)
    # K for (6, 5) is {identity, (1 6) as residue-0 swap}; that pair has
    # distance 2, below the code distance 4
    kspec = ResidueSubgroupSpec.for_params(6, 5)
    gamma = list(subgroup_K(kspec).members)
    assert len(gamma) == 2
    with pytest.raises(PreconditionViolated):
        construct_permutation_code(work, gamma)


def test_construct_budget():
    work = build_fixture_a()
    with pytest.raises(BudgetExceeded):
        construct_permutation_code(work, [identity_perm(6)], budget=100)


def test_syndrome_buckets_partition_the_sweep():
    work = build_fixture_a()
    buckets, check = syndrome_buckets(work)
    total = sum(len(v) for v in buckets.values())
    assert total == 720
    distinct = set()
    for v in buckets.values():
        distinct.update(v)
    assert len(distinct) == 720
    # ones-row check: all syndromes share the forced first coordinate
    firsts = {syn[0] for syn in buckets}
    assert firsts == {label_sum(6, work.spec)}


def build_subgroup_case(q, n, k, d, seed):
    """A random ones-row code and an exact inner code of more than one
    member inside K."""
    code = random_code_search(n, k, d, q, seed)
    work = normalize_first_row_ones(code, find_full_weight_dual_codeword(code, seed))
    kspec = ResidueSubgroupSpec.for_params(n, q)
    gamma = list(max_code_in_K(kspec, d, mode="exact").members)
    assert len(gamma) > 1
    return work, gamma, kspec


def test_phi_runs_once_per_coset(monkeypatch):
    work, gamma, kspec = build_subgroup_case(4, 6, 2, 4, seed=3)
    calls = 0
    real_phi = perms.phi

    def counting_phi(perm, check):
        nonlocal calls
        calls += 1
        return real_phi(perm, check)

    monkeypatch.setattr(perms, "phi", counting_phi)
    _, cert = construct_permutation_code(work, gamma, seed=3)
    assert cert.gamma_size == 2
    assert calls == math.factorial(6) // kspec.order == cert.coset_count


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
    cases = {
        "empty.txt": "",
        "header.txt": "4 1\n1 2 3 4\n",
        "badrow.txt": "4 1 4\n1 2 3\n",
        "notperm.txt": "4 1 4\n1 2 2 4\n",
        "alpha.txt": "4 1 4\n1 2 x 4\n",
    }
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError):
            read_permutation_code(p)


def test_read_permutation_code_keeps_duplicates(tmp_path):
    p = tmp_path / "dup.txt"
    p.write_text("3 2 3\n1 2 3\n1 2 3\n")
    n, size, d, rows = read_permutation_code(p)
    assert len(rows) == 2  # verifier, not parser, flags the duplicate
