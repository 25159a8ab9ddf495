"""Shared brute-force oracles used across the test modules.

The oracle_* helpers enumerate directly with plain pair loops or with field
arithmetic from sympy's galoistools; none of them reuses the scan loops or
the GF tables inside the package, so agreement between the two is evidence,
not tautology.

The helpers after them (exact small-case maxima, the nonzero weight set,
dual-MDS checks, the greedy ones-row check matrix) do reuse package code:
the clique search, the GF tables, the distance search, the parity check
and row reduction.  They are reference computations that only the tests
need.
"""

import functools
import itertools
import math
import random

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem, gf_strip

from permcodes.errors import BudgetExceeded, NotInDual, ParameterError
from permcodes.linear import (
    DEFAULT_DISTANCE_BUDGET,
    LinearCode,
    MatrixGF,
    dual,
    min_distance,
    parity_check,
    rref,
)
from permcodes.perms import (
    PermutationCode,
    _max_clique,
    identity_perm,
    perm_hamming,
)


def _to_poly(spec, code):
    """Element code -> galoistools polynomial (highest degree first)."""
    return gf_strip([code // spec.p**i % spec.p for i in reversed(range(spec.m))])


def _to_code(spec, poly):
    out = 0
    for c in poly:
        out = out * spec.p + int(c)
    return out


# Cached so that codeword enumeration does not redo the polynomial arithmetic
# for every pair it meets again.
@functools.cache
def oracle_add(spec, a, b):
    return _to_code(spec, gf_add(_to_poly(spec, a), _to_poly(spec, b), spec.p, ZZ))


@functools.cache
def oracle_mul(spec, a, b):
    prod = gf_mul(_to_poly(spec, a), _to_poly(spec, b), spec.p, ZZ)
    return _to_code(spec, gf_rem(prod, list(reversed(spec.modulus)), spec.p, ZZ))


def oracle_codewords(code):
    """All q^k codewords via direct message-space enumeration."""
    spec = code.spec
    words = []
    for msg in itertools.product(range(spec.q), repeat=code.k):
        w = [0] * code.n
        for i, m in enumerate(msg):
            if m == 0:
                continue
            for j in range(code.n):
                w[j] = oracle_add(spec, w[j], oracle_mul(spec, m, code.generator.rows[i][j]))
        words.append(tuple(w))
    return words


def oracle_min_distance(code):
    return min(
        code.n - w.count(0) for w in oracle_codewords(code) if any(x != 0 for x in w)
    )


def oracle_weights(code):
    return {
        code.n - w.count(0) for w in oracle_codewords(code) if any(x != 0 for x in w)
    }


def oracle_label_sum(n, spec):
    """Sum over i in 1..n of the labels i mod q: the first syndrome coordinate
    under an all-ones check row, the same for every permutation."""
    acc = 0
    for i in range(1, n + 1):
        acc = oracle_add(spec, acc, i % spec.q)
    return acc


def oracle_perm_distance(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def oracle_code_distance(perms):
    """Minimum pairwise Hamming distance by the obvious double loop."""
    best = None
    perms = list(perms)
    for i in range(len(perms)):
        for j in range(i + 1, len(perms)):
            d = oracle_perm_distance(perms[i], perms[j])
            if best is None or d < best:
                best = d
    return best


def oracle_distance_graph(words, d):
    """Bitmask adjacency joining words at Hamming distance >= d, one pair at
    a time."""
    neigh = [0] * len(words)
    for i, j in itertools.combinations(range(len(words)), 2):
        if oracle_perm_distance(words[i], words[j]) >= d:
            neigh[i] |= 1 << j
            neigh[j] |= 1 << i
    return neigh


def oracle_greedy_code(members, d, seed):
    """First-fit pass over members in a seeded shuffle, each candidate checked
    against every word kept so far by the pair loop."""
    order = list(range(len(members)))
    random.Random(seed).shuffle(order)
    chosen = []
    for idx in order:
        p = members[idx]
        if all(oracle_perm_distance(p, c) >= d for c in chosen):
            chosen.append(p)
    return chosen


def oracle_max_subset_size(members, d):
    """Exact M(K, d) by scanning every subset; usable only for tiny K."""
    members = list(members)
    best = 0
    for r in range(len(members), 0, -1):
        for subset in itertools.combinations(members, r):
            if all(
                oracle_perm_distance(a, b) >= d
                for a, b in itertools.combinations(subset, 2)
            ):
                return r
    return best


def oracle_coset_representatives(n, q):
    """First permutation seen for each residue vector in a lex walk of S_n."""
    seen = {}
    for p in itertools.permutations(range(1, n + 1)):
        seen.setdefault(tuple(x % q for x in p), p)
    return list(seen.values())


@functools.cache
def oracle_tables(spec):
    """Full add and mul tables from galoistools, for loops too hot for the
    per-call caches above."""
    elems = range(spec.q)
    return (
        [[oracle_add(spec, a, b) for b in elems] for a in elems],
        [[oracle_mul(spec, a, b) for b in elems] for a in elems],
    )


def oracle_syndrome(perm, check):
    """Syndrome of the labels sigma(i) mod q, with galoistools arithmetic."""
    q = check.spec.q
    add, mul = oracle_tables(check.spec)
    out = []
    for row in check.rows:
        acc = 0
        for h, x in zip(row, perm):
            acc = add[acc][mul[h][x % q]]
        out.append(acc)
    return tuple(out)


def oracle_largest_bucket(gamma, check, n, q):
    """Bucket every translate g o rep by its own syndrome and return the
    largest bucket, ties to the smallest syndrome, as (syndrome, sorted
    members)."""
    buckets = {}
    for rep in oracle_coset_representatives(n, q):
        for g in gamma:
            t = tuple(g[x - 1] for x in rep)
            buckets.setdefault(oracle_syndrome(t, check), []).append(t)
    syn = min(buckets, key=lambda s: (-len(buckets[s]), s))
    return syn, sorted(buckets[syn])


# ---------------------------------------------------------------------------
# Reference computations built on package code


def brute_force_max_code(n, d, budget=120):
    """Exact maximum permutation code in S_n, witness included (tiny n only)."""
    if math.factorial(n) > budget:
        raise BudgetExceeded(f"{n}! exceeds budget {budget}")
    if d < 1 or d > n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}")
    ident = identity_perm(n)
    cands = [
        p for p in itertools.permutations(range(1, n + 1)) if perm_hamming(p, ident) >= d
    ]
    clique = _max_clique(oracle_distance_graph(cands, d))
    return PermutationCode(n, [ident] + [cands[v] for v in clique])


def brute_force_M(n, d, budget=120):
    """Exact M(n, d) for tiny n."""
    return brute_force_max_code(n, d, budget).size


def nonzero_weight_set(code: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> set[int]:
    """Exact set of weights of nonzero codewords."""
    if code.spec.q**code.k > budget:
        raise BudgetExceeded(
            f"{code.spec.q}^{code.k} messages exceed budget {budget}"
        )
    add, mul, _, _ = code.spec.tables()
    rows = code.generator.rows
    weights = set()
    # one message per scalar class, its first nonzero coordinate 1: the words
    # of each lead, extended one later row at a time, in product order
    for lead in range(code.k):
        words = [rows[lead]]
        for row in rows[lead + 1 :]:
            words = [[add[x][s[y]] for x, y in zip(w, row)] for w in words for s in mul]
        weights.update(code.n - w.count(0) for w in words)
    return weights


def oracle_ones_row_check(code):
    """A parity check matrix with an all-ones first row, built greedily: the
    ones row, then each row of parity_check(code) that raises the rank of
    the rows kept so far.  Raises NotInDual when some generator row does not
    sum to zero, that is when the all-ones vector is not in the dual."""
    spec = code.spec
    add, _ = oracle_tables(spec)
    if any(functools.reduce(lambda a, b: add[a][b], row) for row in code.generator.rows):
        raise NotInDual("all-ones vector is not in the dual code")
    sel = [(1,) * code.n]
    for row in parity_check(code).rows:
        if rref(MatrixGF(spec, sel + [row]))[1] > len(sel):
            sel.append(row)
    assert len(sel) == code.n - code.k
    return MatrixGF(spec, sel)


def check_columns_independent(matrix, t):
    """True iff every t-subset of columns is linearly independent."""
    if not 1 <= t <= matrix.nrows:
        raise ParameterError(f"need 1 <= t <= {matrix.nrows}, got {t}")
    for cols in itertools.combinations(range(matrix.ncols), t):
        sub = MatrixGF(matrix.spec, [[row[c] for c in cols] for row in matrix.rows])
        if rref(sub)[1] != t:
            return False
    return True


def verify_dual_mds(code, budget=DEFAULT_DISTANCE_BUDGET):
    """Exact check that the dual code is MDS (dual distance == k + 1).

    Enumerates the dual when q^(n-k) fits the budget; otherwise decides via
    column independence of the dual's parity check (the primal generator):
    dual distance >= k+1 iff every k columns are independent, and Singleton
    caps it at k+1, so the criterion is exact as well.
    """
    try:
        return min_distance(dual(code), budget) == code.k + 1
    except BudgetExceeded:
        return check_columns_independent(code.generator, code.k)
