"""Permutation codes under the Hamming metric and the syndrome construction.

Permutations on {1..n} are tuples in one-line notation: p[i-1] is the image
of i.  Composition follows function application, compose(f, g)(i) = f(g(i)).
The Hamming distance between permutations counts disagreeing positions; it is
right-invariant, so cosets and subgroup translates preserve all distances.

The central construction takes an [n, k, d]_q code whose parity check matrix
starts with the all-ones row, buckets a union of subgroup-coset translates by
the syndrome of the label map i -> (i mod q), and keeps the largest bucket.
Each bucket is a permutation code of minimum distance at least d, and the
largest one is at least as big as the pigeonhole floor.  The bucket sizes
come from a DP over positions that counts cosets per syndrome without
building any; only the largest bucket's members are ever built.

The exact code inside K and the involution lift take the clique search and
A_2 from combinat, and so do |K| and the floor: the construction is integer
arithmetic throughout and loads no fraction.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

from .combinat import (
    MAX_CLIQUE_VERTICES,
    _distance_graph,
    _max_clique,
    _residue_subgroup_order,
    max_binary_code,
    pigeonhole_floor,
)
from .errors import BudgetExceeded, ParameterError, VerificationFailed
from .linear import (
    LinearCode,
    MatrixGF,
    find_full_weight_dual_codeword,
    min_distance,
    normalize_first_row_ones,
    parity_check,
    parity_check_with_ones_row,
)
from .verifier import (
    Perm,
    _pack_rows,
    _subset_masks,
    _write_records,
    code_min_distance,
    is_permutation,
)
from .verifier import read_permutation_code as read_permutation_code

DEFAULT_SWEEP_BUDGET = 50_000
DEFAULT_SUBGROUP_BUDGET = 100_000
# a DP state's table is dense when its arrangements times this reach q^w
DENSE_FACTOR = 16


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(f: Perm, g: Perm) -> Perm:
    """(f o g)(i) = f(g(i))."""
    if len(f) != len(g):
        raise ParameterError("permutations act on different sets")
    return tuple(f[x - 1] for x in g)


def perm_hamming(a: Perm, b: Perm) -> int:
    """Number of positions where the permutations disagree."""
    if len(a) != len(b):
        raise ParameterError("permutations act on different sets")
    return sum(1 for x, y in zip(a, b) if x != y)


class PermutationCode:
    """A duplicate-free set of permutations of {1..n}, in sorted order."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members) -> None:
        mem_list = [tuple(p) for p in members]
        mem = sorted(set(mem_list))
        if len(mem) != len(mem_list):
            raise ParameterError("members contain duplicates")
        for p in mem:
            if len(p) != n or not is_permutation(p):
                raise ParameterError(f"not a permutation of 1..{n}: {p}")
        self.n = n
        self.members = tuple(mem)

    @property
    def size(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"PermutationCode(n={self.n}, size={self.size})"


# ---------------------------------------------------------------------------
# The residue subgroup K = {sigma : sigma(i) = i (mod q)}


class ResidueSubgroupSpec(NamedTuple):
    """Shape of K inside S_n for a given modulus q: n = q*s + r."""

    n: int
    q: int
    s: int
    r: int

    @classmethod
    def for_params(cls, n: int, q: int) -> "ResidueSubgroupSpec":
        if n < 1 or q < 2:
            raise ParameterError("need n >= 1 and q >= 2")
        return cls(n, q, n // q, n % q)

    @property
    def order(self) -> int:
        """The size of K."""
        return _residue_subgroup_order(self.n, self.q)

    def residue_classes(self) -> list[tuple[int, ...]]:
        """The orbits of K on {1..n}, keyed by residue 0..q-1, ascending."""
        classes = []
        for c in range(self.q):
            members = tuple(i for i in range(1, self.n + 1) if i % self.q == c)
            if members:
                classes.append(members)
        return classes

    def contains(self, p: Perm) -> bool:
        if len(p) != self.n or not is_permutation(p):
            return False
        return all(p[i - 1] % self.q == i % self.q for i in range(1, self.n + 1))


def subgroup_K(spec: ResidueSubgroupSpec) -> PermutationCode:
    """Enumerate K as a PermutationCode, identity first, deterministic order."""
    size = spec.order
    if size > DEFAULT_SUBGROUP_BUDGET:
        raise BudgetExceeded(f"|K| = {size} exceeds budget {DEFAULT_SUBGROUP_BUDGET}")
    classes = spec.residue_classes()
    members = []
    for arrangement in itertools.product(
        *(itertools.permutations(cls) for cls in classes)
    ):
        img = [0] * spec.n
        for cls, arr in zip(classes, arrangement):
            for pos, val in zip(cls, arr):
                img[pos - 1] = val
        members.append(tuple(img))
    assert len(members) == size
    pc = PermutationCode(spec.n, members)
    return pc


# ---------------------------------------------------------------------------
# Syndromes of the cosets of K


class SyndromeTable:
    """Coset counts per syndrome by a DP over positions, and the members of
    any one syndrome class by a DFS that the counts guide.

    Position i carries the label sigma(i) mod q.  Every g in K keeps
    residues, so the right cosets of K are the arrangements of the label
    multiset, and a coset's syndrome is the sum over positions of
    column_i * label.  No coset has to be built to count them:

    * a state is the multiset of labels still to place, one count per
      residue class packed in mixed radix; with L labels left, the next
      position is n - L;
    * ``tables[state]`` counts the state's arrangements per suffix
      syndrome, in one of two forms;
    * a sparse table is a {packed syndrome: arrangements} dict, the syndrome
      packed into one int: each GF(q) entry, q = p^m, is its m base-p
      digits, each in a field of b = (p - 1).bit_length() + 1 bits, entries
      big-endian and digits most significant first, so that integer order
      is tuple order.  Two packed syndromes add field-wise mod p with a few
      big-int operations and no per-digit loop (SIMD within a register): a
      field sum is at most 2p - 2 < 2^b, so no carry crosses fields, and p
      is taken back from exactly the fields that reach p (see _add_index);
    * a dense table is one int of Q = q^w count fields, w the number of
      check rows the DP keys on, each field F = coset_count.bit_length()
      bits wide and indexed by the syndrome read in base q, that is by its
      D = m * w base-p digits.  Adding a vector to every syndrome rotates
      each block of p^(j+1) fields by digit j of the vector, one rotation
      per nonzero digit (see _translate), and the tables of the moves add
      with a plain +: every field stays at or below its state's arrangement
      count, at most the coset count, so no carry crosses fields;
    * a state goes dense when its arrangement count (the multinomial of
      its labels left) times DENSE_FACTOR reaches Q, so a state whose
      sparse table would be nearly full; a sparse table that a dense state
      reads is converted once;
    * the packed label * column_i is the one cache per (position, label),
      for the indices the DP reaches only: a sparse move adds it to each
      syndrome with _add_index, and its rotation masks are built on first
      use;
    * each move is recorded once, by the DP: the value it places, the state
      after it and the packed -label * column_i, the shift that the listing
      adds to the syndrome still needed.

    A sparse state holds no more entries than it has label suffixes, and
    no suffix length has more of them than there are cosets.  A dense state
    holds Q fields, at most DENSE_FACTOR times its arrangement count, so the
    tables hold at most max(DENSE_FACTOR, 1) * (1 + n * (n! / |K|)) entries
    and fields however large q^w is, and none is dense when q^w exceeds
    DENSE_FACTOR times the coset count.  The bound covers all the
    per-syndrome state the DP holds but the dense forms (and field offsets)
    of the sparse tables that dense states read.  With ones_row the first
    check row is skipped: its value is the label sum, the same for every
    permutation, and it is prepended to every key of ``counts``.
    """

    def __init__(self, check: MatrixGF, ones_row: bool) -> None:
        spec = check.spec
        q, n = spec.q, check.ncols
        add, self._mul, neg, _ = spec.tables()
        self.check = check
        rows = check.rows[1:] if ones_row else check.rows
        self._columns = [tuple(row[i] for row in rows) for i in range(n)]
        self._width = len(rows)
        p, m = spec.p, spec.m
        b = (p - 1).bit_length() + 1
        # spread[x]: the digit fields of element x (digit j is x // p^j % p)
        self._spread = [
            sum(x // p**j % p << b * j for j in range(m)) for x in range(q)
        ]
        self._element = {v: x for x, v in enumerate(self._spread)}
        self._entry_bits = b * m
        low = sum(1 << b * j for j in range(m * self._width))
        self._p, self._top = p, b - 1
        self._bias = low * ((1 << b - 1) - p)  # a field reaches 2^(b-1) iff it held >= p
        self._high = low << b - 1
        label_sum = 0
        for v in range(1, n + 1):
            label_sum = add[label_sum][v % q]
        self._prefix = (label_sum,) if ones_row else ()
        self._shifts: dict[tuple[int, int], int] = {}

        kspec = ResidueSubgroupSpec.for_params(n, q)
        # (label, class values ascending, radix) per nonempty residue class
        classes = []
        radix = 1
        for values in kspec.residue_classes():
            classes.append((values[0] % q, values, radix))
            radix *= len(values) + 1
        self._fields = fields = q**self._width
        self._field_bits = (math.factorial(n) // kspec.order).bit_length()
        self._offsets: dict[int, int] = {}  # packed syndrome -> dense field offset
        self._digit_count = m * self._width
        self._masks: dict[tuple[int, int], tuple[int, int]] = {}
        # per packed vector: (up, low mask, down, high mask) per nonzero digit
        self._rotations: dict[int, list[tuple[int, int, int, int]]] = {}
        # moves[state]: (smallest free value, state after it, index of
        # -label * column_i) per class with labels left, by value;
        # tables[state] is built from the tables of the states one move on,
        # all of them smaller
        self._moves: list[list[tuple[int, int, int]]] = []
        self.tables: list[dict[int, int] | int] = []
        arrangements: list[int] = []  # per state: the arrangements of its labels left
        converted: dict[int, int] = {}  # dense forms of sparse tables read by dense states
        add_index = self._add_index
        for state in range(radix):
            moves, left, count = [], 0, 0
            for label, values, rad in classes:
                rem = state // rad % (len(values) + 1)
                if rem:
                    moves.append((values[len(values) - rem], state - rad, label))
                    left += rem
                    count += arrangements[state - rad]
            moves.sort()
            i = n - left
            self._moves.append(
                [(value, after, self._shift(i, neg[label])) for value, after, label in moves]
            )
            count = count or 1  # the empty multiset has one arrangement
            arrangements.append(count)
            if count * DENSE_FACTOR >= fields:
                dense = 0 if state else 1
                for _, after, label in moves:
                    child = self.tables[after]
                    if type(child) is dict:
                        if after not in converted:
                            converted[after] = self._to_dense(child)
                        child = converted[after]
                    dense += self._translate(child, self._shift(i, label))
                self.tables.append(dense)
                continue
            out: dict[int, int] = {} if state else {0: 1}
            get = out.get
            for _, after, label in moves:
                w = self._shift(i, label)
                for v, cnt in self.tables[after].items():
                    u = add_index(v, w)
                    out[u] = get(u, 0) + cnt
            self.tables.append(out)
        last = self.tables[-1]
        if type(last) is dict:
            self.counts: dict[tuple[int, ...], int] = {
                self._prefix + self._digits(v): cnt for v, cnt in last.items()
            }
        else:
            self.counts = {
                self._prefix + syndrome: cnt
                for syndrome, cnt in zip(
                    itertools.product(range(q), repeat=self._width), self._dense_fields(last)
                )
                if cnt
            }

    def _shift(self, i: int, a: int) -> int:
        """The packed a * column_i, cached per (i, a)."""
        key = (i, a)
        got = self._shifts.get(key)
        if got is None:
            mul = self._mul[a]
            got = self._shifts[key] = self._pack(mul[h] for h in self._columns[i])
        return got

    def _pack(self, vector) -> int:
        """The packed index of a vector over GF(q)."""
        spread, bits = self._spread, self._entry_bits
        v = 0
        for x in vector:
            v = v << bits | spread[x]
        return v

    def _add_index(self, u: int, v: int) -> int:
        """u + v entry-wise in GF(q): every digit field at once, mod p."""
        s = u + v
        return s - ((s + self._bias & self._high) >> self._top) * self._p

    def _digits(self, v: int) -> tuple[int, ...]:
        """The vector over GF(q) that v packs."""
        element, bits = self._element, self._entry_bits
        entry = (1 << bits) - 1
        return tuple(
            element[v >> bits * i & entry] for i in reversed(range(self._width))
        )

    def _offset(self, v: int) -> int:
        """The bit offset in a dense table of the field of packed syndrome v,
        F times the syndrome read in base q."""
        got = self._offsets.get(v)
        if got is None:
            q, index = len(self._spread), 0
            for x in self._digits(v):
                index = index * q + x
            got = self._offsets[v] = index * self._field_bits
        return got

    def _to_dense(self, table: dict[int, int]) -> int:
        """The dense form of a sparse table."""
        offset = self._offset
        return sum(cnt << offset(v) for v, cnt in table.items())

    def _dense_fields(self, dense: int) -> list[int]:
        """The Q fields of a dense table, by ascending index."""
        bits = self._field_bits
        text = format(dense, "b").zfill(self._fields * bits)
        return [int(text[i - bits : i], 2) for i in range(len(text), 0, -bits)]

    def _translate(self, dense: int, w: int) -> int:
        """A dense table with packed vector w added to every field index: at
        each nonzero digit a of w, digit j, the fields whose digit j is
        below p - a move up by a * p^j fields and the others down by
        (p - a) * p^j, within each block of p^(j+1) fields."""
        rotations = self._rotations.get(w)
        if rotations is None:
            b, p, bits = self._top + 1, self._p, self._field_bits
            rotations = self._rotations[w] = []
            for j in range(self._digit_count):
                a = w >> b * j & (1 << b) - 1
                if a:
                    low, high = self._rotation_masks(j, a)
                    rotations.append((a * p**j * bits, low, (p - a) * p**j * bits, high))
        for up, low, down, high in rotations:
            dense = (dense & low) << up | (dense & high) >> down
        return dense

    def _rotation_masks(self, j: int, a: int) -> tuple[int, int]:
        """The fields whose digit j is below p - a, and the others; built in
        O(Q * F) bits, once."""
        key = (j, a)
        got = self._masks.get(key)
        if got is None:
            bits, p = self._field_bits, self._p
            size = self._fields * bits
            # most significant first: per block of p^(j+1) fields, a * p^j
            # fields out, then the (p - a) * p^j fields of the low mask
            block = "0" * (a * p**j * bits) + "1" * ((p - a) * p**j * bits)
            low = int(block * (self._fields // p ** (j + 1)), 2)
            got = self._masks[key] = (low, low ^ (1 << size) - 1)
        return got

    def representatives(self, syndrome) -> list[Perm]:
        """The lexicographically first member of each coset with this
        syndrome, in lex order.

        Each position takes the smallest free value of some residue class,
        classes tried by that value, and a branch is entered only when the
        table of the labels left still holds the rest of the syndrome: every
        branch ends in a representative, so the cost scales with the bucket.
        A dense table is tested one field at a time, never unpacked.
        """
        syndrome = tuple(syndrome)
        if syndrome not in self.counts:
            return []
        need = self._pack(syndrome[len(self._prefix) :])
        tables, moves, add_index = self.tables, self._moves, self._add_index
        offset, field = self._offset, (1 << self._field_bits) - 1
        reps: list[Perm] = []
        # (state, syndrome still needed, prefix), pushed in reverse move order
        stack = [(len(tables) - 1, need, ())]
        while stack:
            state, need, prefix = stack.pop()
            for value, child, w in reversed(moves[state]):
                rest = add_index(need, w)
                table = tables[child]
                if type(table) is dict:
                    if rest not in table:
                        continue
                elif not table >> offset(rest) & field:
                    continue
                if child:
                    stack.append((child, rest, (*prefix, value)))
                else:
                    reps.append((*prefix, value))
        return reps


# ---------------------------------------------------------------------------
# The construction


class ConstructionCertificate(NamedTuple):
    """Everything needed to reproduce and re-check one constructed bucket."""

    n: int
    q: int
    k: int
    d: int
    ones_row: bool
    subgroup_order: int
    gamma_size: int
    coset_count: int
    sweep_size: int
    syndrome: tuple[int, ...]
    bucket_size: int
    verified_distance: int | float
    guaranteed_floor: int
    seed: int | None = None

    def to_text(self) -> str:
        return "".join(f"{f}: {_value_text(v)}\n" for f, v in zip(self._fields, self))


def _value_text(v) -> str:
    """A certificate or header value: none, true/false, tuple, inf or int."""
    if v is None:
        return "none"
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, tuple):
        return " ".join(map(str, v))
    return "inf" if v == math.inf else str(int(v))


def syndrome_buckets(
    code: LinearCode, assume_ones_row: bool = True
) -> tuple[dict[tuple[int, ...], int], SyndromeTable]:
    """Count the cosets of K in each syndrome class.

    Returns ({syndrome: coset count}, table); ``table.representatives``
    lists the coset representatives of any one class.  Every g in K keeps
    residues, so each translate g o rep has the syndrome of rep.  The counts
    come from a DP over positions (see SyndromeTable) without enumerating
    the n! / |K| cosets.
    """
    check = parity_check_with_ones_row(code) if assume_ones_row else parity_check(code)
    table = SyndromeTable(check, assume_ones_row)
    return table.counts, table


def construct_permutation_code(
    code: LinearCode,
    gamma_prime,
    assume_ones_row: bool = True,
    budget: int = DEFAULT_SWEEP_BUDGET,
    seed: int | None = None,
) -> tuple[PermutationCode, ConstructionCertificate]:
    """Build the largest syndrome bucket of the sweep gamma_prime * coset reps
    and certify it.

    The input code must have its exact distance available (it is computed on
    demand within the default enumeration budget).  gamma_prime must lie in
    the residue subgroup and respect the code's distance; the budget counts
    translates.  With assume_ones_row the check matrix is forced to start
    with the all-ones row, which shrinks the reachable syndrome set by a
    factor of q and raises the pigeonhole floor accordingly.
    """
    n, q, k = code.n, code.spec.q, code.k
    d = min_distance(code)
    members = [tuple(g) for g in gamma_prime]
    if not members:
        raise ParameterError("gamma_prime must be nonempty")
    kspec = ResidueSubgroupSpec.for_params(n, q)
    for g in members:
        if not kspec.contains(g):
            raise ParameterError(f"{g} is outside the residue subgroup")
    if code_min_distance(members, d) < d:
        raise ParameterError("gamma_prime min distance is below the code distance")
    k_order = kspec.order
    coset_count = math.factorial(n) // k_order
    sweep = coset_count * len(members)
    if sweep > budget:
        raise BudgetExceeded(f"sweep of {sweep} translates exceeds budget {budget}")

    counts, table = syndrome_buckets(code, assume_ones_row)
    syndrome, _ = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    bucket = [compose(g, rep) for rep in table.representatives(syndrome) for g in members]
    verified = code_min_distance(bucket, d)
    if verified < d:
        raise VerificationFailed(
            f"bucket distance {verified} fell below the guaranteed {d}"
        )
    floor = pigeonhole_floor(n, q, k, len(members), ones_row=assume_ones_row)
    pc = PermutationCode(n, bucket)
    cert = ConstructionCertificate(
        n=n,
        q=q,
        k=k,
        d=d,
        ones_row=assume_ones_row,
        subgroup_order=k_order,
        gamma_size=len(members),
        coset_count=coset_count,
        sweep_size=sweep,
        syndrome=syndrome,
        bucket_size=len(bucket),
        verified_distance=verified,
        guaranteed_floor=floor,
        seed=seed,
    )
    assert cert.bucket_size >= floor
    return pc, cert


def construct(
    code: LinearCode,
    d: int,
    gamma: str = "exact",
    ones_row: bool = True,
    seed: int | None = None,
    budget: int | None = None,
) -> tuple[PermutationCode, ConstructionCertificate, LinearCode]:
    """The whole recipe: check the code's distance against d, build gamma' in
    K (identity, exact, greedy or lift), with ones_row rescale the code by a
    seeded full-weight dual word, and keep the largest bucket.  Returns the
    permutation code, its certificate and the code it was bucketed under;
    budget None keeps each gated step's own default."""
    if ones_row and seed is None:
        raise ParameterError("the full-weight dual search needs a seed")
    limit = {} if budget is None else {"budget": budget}
    dm = min_distance(code, **limit)
    if dm < d:
        raise ParameterError(f"code has distance {dm}, below requested {d}")
    # gamma' (n, q and d only) comes before the dual search: its hint is no dead end
    kspec = ResidueSubgroupSpec.for_params(code.n, code.spec.q)
    if gamma == "identity":
        gamma_prime = [identity_perm(code.n)]
    elif gamma == "lift":
        gamma_prime, _ = lift_code_into_K(kspec, dm)
    else:
        gamma_prime = max_code_in_K(kspec, dm, mode=gamma, seed=seed)
    if ones_row:
        w = find_full_weight_dual_codeword(code, seed, **limit)
        if w is None:
            raise ParameterError(
                "no full-weight dual codeword found; construct without the ones row"
            )
        code = normalize_first_row_ones(code, w)
    pc, cert = construct_permutation_code(
        code, gamma_prime, assume_ones_row=ones_row, seed=seed, **limit
    )
    return pc, cert, code


# ---------------------------------------------------------------------------
# The largest code inside K


def max_code_in_K(
    spec: ResidueSubgroupSpec,
    d: int,
    mode: str = "exact",
    seed: int | None = None,
) -> PermutationCode:
    """Largest (exact mode) or greedily grown code inside K at distance >= d.

    Exact mode pins the identity (K is a group, so translation loses nothing)
    and runs branch-and-bound clique search; greedy mode runs one seeded pass.
    """
    if mode not in ("exact", "greedy"):
        raise ParameterError(f"unknown mode {mode!r}")
    # refuse from |K| alone, without enumerating K
    if mode == "exact" and spec.order > MAX_CLIQUE_VERTICES:
        raise BudgetExceeded(f"|K| = {spec.order} is too large for exact clique search")
    members = list(subgroup_K(spec).members)
    if mode == "exact":
        ident = identity_perm(spec.n)
        cands = [p for p in members if p != ident and perm_hamming(p, ident) >= d]
        neigh = _distance_graph(cands, d)
        clique = _max_clique(neigh)
        chosen = [ident] + [cands[v] for v in clique]
    else:
        if seed is None:
            raise ParameterError("greedy mode requires a seed")
        order = list(range(len(members)))
        random.Random(seed).shuffle(order)
        # p is within distance d - 1 of a chosen word exactly when the two
        # agree on some n - d + 1 positions: keep one set per such subset.
        packed, fields = _pack_rows(members, spec.n)
        index = [(mask, set()) for mask in _subset_masks(fields, max(spec.n - d + 1, 0))]
        chosen = []
        for idx in order:
            p = packed[idx]
            if all(p & mask not in seen for mask, seen in index):
                chosen.append(members[idx])
                for mask, seen in index:
                    seen.add(p & mask)
    pc = PermutationCode(spec.n, chosen)
    dist = code_min_distance(pc, d)
    if dist < d:
        raise VerificationFailed("selected set fails its own distance floor")
    return pc


# ---------------------------------------------------------------------------
# The involution lift


def binary_lift(bits, n: int, pairs) -> Perm:
    """Lift a bit vector to a product of disjoint transpositions of 1..n.

    Bit i = 1 applies the i-th transposition pair.  Distances double: lifted
    words at binary distance t sit at permutation distance 2t.
    """
    bits = tuple(bits)
    r = len(bits)
    pairs = tuple(tuple(p) for p in pairs)
    if len(pairs) != r:
        raise ParameterError(f"{r} bits need {r} pairs, got {len(pairs)}")
    flat = [x for p in pairs for x in p]
    if len(set(flat)) != len(flat):
        raise ParameterError("transposition pairs overlap")
    if any(not 1 <= x <= n for x in flat):
        raise ParameterError(f"pair entries must lie in 1..{n}")
    img = list(range(1, n + 1))
    for bit, (a, b) in zip(bits, pairs):
        if bit not in (0, 1):
            raise ParameterError("bits must be 0 or 1")
        if bit:
            img[a - 1], img[b - 1] = img[b - 1], img[a - 1]
    return tuple(img)


def lift_code_into_K(
    spec: ResidueSubgroupSpec, d: int
) -> tuple[PermutationCode, int]:
    """Best involution code inside an (S_2)^r-shaped K for distance >= d.

    Computes A_2(r, ceil(d/2)) exactly and lifts its witness onto the actual
    2-element orbits of K, so the result genuinely lives inside K with
    permutation distance >= 2*ceil(d/2) >= d.  Returns (code, binary size).
    Raises ParameterError when any orbit of K has more than two elements.
    """
    pairs = []
    for cls in spec.residue_classes():
        if len(cls) > 2:
            raise ParameterError(f"class {cls} has size {len(cls)}; subgroup is not (S_2)^r")
        if len(cls) == 2:
            pairs.append(cls)
    pairs.sort()
    r = len(pairs)
    if r == 0:
        return PermutationCode(spec.n, [identity_perm(spec.n)]), 1
    need = (d + 1) // 2
    size, witness = max_binary_code(r, need)
    lifted = [binary_lift(bits, n=spec.n, pairs=pairs) for bits in witness]
    return PermutationCode(spec.n, lifted), size


# ---------------------------------------------------------------------------
# Permutation code files, in the format that verifier.read_permutation_code
# reads.


def write_permutation_code(pc: PermutationCode, path, distance=None) -> None:
    d = distance if distance is not None else code_min_distance(pc)
    _write_records(path, f"{pc.n} {pc.size} {_value_text(d)}", pc.members)
