"""Shared brute-force oracles used across the test modules.

Everything here enumerates directly with plain pair loops or with field
arithmetic from sympy's galoistools; none of it reuses the scan loops or the
GF tables inside the package, so agreement between the two is evidence, not
tautology.
"""

import functools
import itertools

from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_rem, gf_strip


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


def oracle_syndrome(perm, check):
    """Syndrome of the labels sigma(i) mod q, with galoistools arithmetic."""
    spec = check.spec
    out = []
    for row in check.rows:
        acc = 0
        for h, x in zip(row, perm):
            acc = oracle_add(spec, acc, oracle_mul(spec, h, x % spec.q))
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
