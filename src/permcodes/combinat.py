"""The integer arithmetic that the construction and the bounds share: |K|,
the construction's pigeonhole floor, and exact A_2(r, d), the largest binary
code of length r at Hamming distance d.  A_2 is in closed form where no three
words fit, else a branch-and-bound clique search with a vertex budget
(MAX_CLIQUE_VERTICES) and a work budget (MAX_CLIQUE_WORK), started from the
lexicode.  This module imports nothing of the package but ``errors``.
"""

from __future__ import annotations

import itertools
import math

from .errors import BudgetExceeded, ParameterError


def _residue_subgroup_order(n: int, q: int) -> int:
    """|K| = (s+1)!^r * s!^(q-r) for n = q*s + r (see perms.ResidueSubgroupSpec)."""
    s, r = divmod(n, q)
    return math.factorial(s + 1) ** r * math.factorial(s) ** (q - r)


def _floor_terms(n: int, q: int, k: int, gamma_size: int, ones_row: bool) -> tuple[int, int]:
    """The pigeonhole floor n! gamma_size / (|K| q^e) as (numerator,
    denominator), e = n-k-1 when the check matrix starts with the all-ones row
    (the first syndrome coordinate is then constant) and e = n-k otherwise."""
    if not 0 < k < n:
        raise ParameterError(f"need 0 < k < n, got k={k}, n={n}")
    if gamma_size < 1:
        raise ParameterError("gamma_size must be positive")
    exponent = n - k - 1 if ones_row else n - k
    return math.factorial(n) * gamma_size, _residue_subgroup_order(n, q) * q**exponent


def pigeonhole_floor(n: int, q: int, k: int, gamma_size: int, ones_row: bool) -> int:
    """The pigeonhole floor rounded up, by integer ceiling division."""
    numerator, denominator = _floor_terms(n, q, k, gamma_size, ones_row)
    return -(-numerator // denominator)


# ---------------------------------------------------------------------------
# Exact A_2(r, d): binary codes by clique search

MAX_CLIQUE_VERTICES = 4096
MAX_CLIQUE_WORK = 10**7


def _max_clique(neigh: list[int]) -> list[int]:
    """Exact maximum clique on a bitmask adjacency list: branch and bound
    with greedy coloring, its incumbent seeded by one first-fit pass in
    vertex order; on A_2's words, which come in lexicographic order, that
    pass yields the lexicode.

    Work is the number of candidates colored, summed over the nodes
    expanded; past MAX_CLIQUE_WORK the search raises BudgetExceeded."""
    n = len(neigh)
    best_set: list[int] = []
    allowed = (1 << n) - 1
    for v in range(n):
        if allowed >> v & 1:
            best_set.append(v)
            allowed &= neigh[v]
    best_size = len(best_set)
    work = 0

    def expand(cand: int, cur: list[int]) -> None:
        nonlocal best_size, best_set, work
        work += cand.bit_count()
        if work > MAX_CLIQUE_WORK:
            raise BudgetExceeded(f"clique search colors more than {MAX_CLIQUE_WORK} candidates")
        order_v: list[int] = []
        color_of: list[int] = []
        rest = cand
        color = 0
        while rest:
            color += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~(neigh[v] | bit)
                rest &= ~bit
                order_v.append(v)
                color_of.append(color)
        for idx in range(len(order_v) - 1, -1, -1):
            if len(cur) + color_of[idx] <= best_size:
                return
            v = order_v[idx]
            newcand = cand & neigh[v]
            cur.append(v)
            if newcand:
                expand(newcand, cur)
            elif len(cur) > best_size:
                best_size = len(cur)
                best_set = cur[:]
            cur.pop()
            cand &= ~(1 << v)

    try:
        expand((1 << n) - 1, [])
    finally:
        del expand  # it holds its own cell: clearing that frees neigh without the gc
    return sorted(best_set)


def _distance_graph(words, d: int) -> list[int]:
    """Bitmask adjacency of the graph on equal-length words (sequences over
    any alphabet) that joins two words at Hamming distance >= d.

    Bit-sliced, with no pair loop: each coordinate keeps one bitmask of the
    vertices per value it takes.  A vertex adds its r disagreement masks into
    a counter of bit planes, plane k holding bit k of every vertex's distance
    to it, and the vertices at distance >= d are read off the planes by a
    bit-sliced comparison with d, most significant plane first.  That is
    O(V r log r) operations on V-bit ints instead of V^2 / 2 pair tests.
    """
    if not words:
        return []
    r = len(words[0])
    full = (1 << len(words)) - 1
    tables: list[dict] = [{} for _ in range(r)]
    for v, word in enumerate(words):
        bit = 1 << v
        for table, x in zip(tables, word):
            table[x] = table.get(x, 0) | bit
    d = max(d, 0)  # every pair is at distance >= 0; keeps d's bits well defined
    width = max(r, d).bit_length()
    neigh = []
    for v, word in enumerate(words):
        planes = [0] * width
        for table, x in zip(tables, word):
            carry = full ^ table[x]
            k = 0
            while carry:
                plane = planes[k]
                planes[k] = plane ^ carry
                carry &= plane
                k += 1
        above, equal = 0, full
        for k in reversed(range(width)):
            if d >> k & 1:
                equal &= planes[k]
            else:
                above |= equal & planes[k]
                equal &= ~planes[k]
        neigh.append((above | equal) & ~(1 << v))
    return neigh


def max_binary_code(r: int, d: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact A_2(r, d) with a witness, zero word pinned by translation
    invariance.  Returns (size, witness bit tuples).

    When 2r < 3d <= 3r the answer is 2 in closed form: the three pairwise
    distances of any three words sum to at most 2r, since each coordinate
    adds at most 2 to the sum.  Otherwise a clique search decides it."""
    if r < 1 or d < 1:
        raise ParameterError("need r >= 1 and d >= 1")
    if 2 * r < 3 * d <= 3 * r:
        return 2, ((0,) * r, (0,) * (r - d) + (1,) * d)
    return _binary_clique(r, d)


def _binary_clique(r: int, d: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """max_binary_code by clique search.  The vertices are the words of
    weight >= d; past MAX_CLIQUE_VERTICES of them the search is refused from
    their count alone, before any word is built."""
    count = sum(math.comb(r, w) for w in range(d, r + 1))
    if count > MAX_CLIQUE_VERTICES:
        raise BudgetExceeded(
            f"{count} candidate words exceed the clique budget {MAX_CLIQUE_VERTICES}"
        )
    # the words of weight >= d as bit tuples, most significant bit first, so
    # that tuple order is integer order
    words = sorted(
        tuple(int(b in ones) for b in range(r))
        for w in range(d, r + 1)
        for ones in itertools.combinations(range(r), w)
    )
    clique = _max_clique(_distance_graph(words, d))
    witness = tuple(sorted([(0,) * r] + [words[v] for v in clique]))
    return len(witness), witness
