"""Permutation codes under the Hamming metric and the syndrome construction.

Permutations on {1..n} are tuples in one-line notation: p[i-1] is the image
of i.  Composition follows function application, compose(f, g)(i) = f(g(i)).
The Hamming distance between permutations counts disagreeing positions; it is
right-invariant, so cosets and subgroup translates preserve all distances.

The central construction takes an [n, k, d]_q code whose parity check matrix
starts with the all-ones row, buckets a union of subgroup-coset translates by
the syndrome of the label map i -> (i mod q), and keeps the largest bucket.
Each bucket is a permutation code of minimum distance at least d, and the
largest one is at least as big as the pigeonhole floor.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .bounds import general_firstbound
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    LengthMismatch,
    ParameterError,
    ParseError,
    PreconditionViolated,
    SpecMismatch,
    VerificationFailed,
)
from .gf import FieldSpec
from .linear import (
    LinearCode,
    MatrixGF,
    min_distance,
    parity_check,
    parity_check_with_ones_row,
)

Perm = tuple[int, ...]

DEFAULT_SWEEP_BUDGET = 10**6
DEFAULT_SUBGROUP_BUDGET = 100_000
MAX_CLIQUE_VERTICES = 4096


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def is_permutation(p) -> bool:
    return isinstance(p, tuple) and sorted(p) == list(range(1, len(p) + 1))


def compose(f: Perm, g: Perm) -> Perm:
    """(f o g)(i) = f(g(i))."""
    if len(f) != len(g):
        raise LengthMismatch("permutations act on different sets")
    return tuple(f[x - 1] for x in g)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


def perm_hamming(a: Perm, b: Perm) -> int:
    """Number of positions where the permutations disagree."""
    if len(a) != len(b):
        raise LengthMismatch("permutations act on different sets")
    return sum(1 for x, y in zip(a, b) if x != y)


def all_permutations(n: int):
    """All of S_n in lexicographic order."""
    return itertools.permutations(range(1, n + 1))


class PermutationCode:
    """A duplicate-free set of permutations of {1..n} with a cached min distance."""

    __slots__ = ("n", "members", "_dmin")

    def __init__(self, n: int, members, _distance=None) -> None:
        mem_list = [tuple(p) for p in members]
        mem = sorted(set(mem_list))
        if len(mem) != len(mem_list):
            raise ParameterError("members contain duplicates")
        for p in mem:
            if len(p) != n or not is_permutation(p):
                raise ParameterError(f"not a permutation of 1..{n}: {p}")
        self.n = n
        self.members = tuple(mem)
        self._dmin = _distance

    @property
    def size(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p) -> bool:
        return tuple(p) in set(self.members)

    def __repr__(self) -> str:
        d = self._dmin
        dtxt = f", d={d}" if d is not None else ""
        return f"PermutationCode(n={self.n}, size={self.size}{dtxt})"


def code_min_distance(code) -> int | float:
    """Exact minimum pairwise distance; +inf for empty or singleton sets."""
    if isinstance(code, PermutationCode):
        if code._dmin is not None:
            return code._dmin
        members = code.members
    else:
        members = list(code)
    best: int | float = math.inf
    m = len(members)
    for i in range(m):
        a = members[i]
        for j in range(i + 1, m):
            w = perm_hamming(a, members[j])
            if w < best:
                best = w
                if best == 0:
                    break
    if isinstance(code, PermutationCode):
        code._dmin = best
    return best


# ---------------------------------------------------------------------------
# The residue subgroup K = {sigma : sigma(i) = i (mod q)}


@dataclass(frozen=True)
class ResidueSubgroupSpec:
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
        """(s+1)!^r * s!^(q-r), the size of K."""
        return math.factorial(self.s + 1) ** self.r * math.factorial(self.s) ** (
            self.q - self.r
        )

    def residue_classes(self) -> list[tuple[int, ...]]:
        """The orbits of K on {1..n}, keyed by residue 0..q-1, ascending."""
        classes = []
        for c in range(self.q):
            members = tuple(i for i in range(1, self.n + 1) if i % self.q == c)
            if members:
                classes.append(members)
        return classes

    def contains(self, p: Perm) -> bool:
        if len(p) != self.n:
            return False
        return all(p[i - 1] % self.q == i % self.q for i in range(1, self.n + 1))


def subgroup_K(spec: ResidueSubgroupSpec, budget: int = DEFAULT_SUBGROUP_BUDGET) -> PermutationCode:
    """Enumerate K as a PermutationCode, identity first, deterministic order."""
    size = spec.order
    if size > budget:
        raise BudgetExceeded(f"|K| = {size} exceeds budget {budget}")
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


def coset_representatives(n: int, q: int, budget: int = DEFAULT_SWEEP_BUDGET) -> list[Perm]:
    """The lexicographically first member of each right coset of K, in lex order.

    Right cosets of K are exactly the level sets of the residue vector
    (sigma(1) mod q, ..., sigma(n) mod q).  Each position takes the smallest
    free value of some residue class; trying the classes by that value gives
    the first member of every coset, in order.  The budget counts cosets.
    """
    count = math.factorial(n) // ResidueSubgroupSpec.for_params(n, q).order
    if count > budget:
        raise BudgetExceeded(f"{count} cosets exceed budget {budget}")
    reps: list[Perm] = []

    def extend(prefix: Perm, free: Perm) -> None:
        if len(free) == 1:
            reps.append(prefix + free)
            return
        seen = set()
        for i, v in enumerate(free):
            if v % q not in seen:
                seen.add(v % q)
                extend(prefix + (v,), free[:i] + free[i + 1 :])

    extend((), identity_perm(n))
    return reps


# ---------------------------------------------------------------------------
# Labels and syndrome


def phi(perm: Perm, check: MatrixGF) -> tuple[int, ...]:
    """Syndrome of the label vector: position i carries the element code
    sigma(i) mod q."""
    spec = check.spec
    q = spec.q
    if len(perm) != check.ncols:
        raise DimensionMismatch("permutation length differs from matrix width")
    add, mul, _, _ = spec.tables()
    out = []
    for row in check.rows:
        acc = 0
        for h, x in zip(row, perm):
            if h:
                label = x % q
                if label:
                    acc = add[acc][mul[h][label]]
        out.append(acc)
    return tuple(out)


def label_sum(n: int, spec: FieldSpec) -> int:
    """Code of the sum over i in 1..n of the labels i mod q; first syndrome
    coordinate under an all-ones check row, identical for every permutation."""
    add = spec.tables()[0]
    acc = 0
    for i in range(1, n + 1):
        acc = add[acc][i % spec.q]
    return acc


# ---------------------------------------------------------------------------
# The construction


@dataclass(frozen=True)
class ConstructionCertificate:
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
        vd = self.verified_distance
        vd_txt = "inf" if vd == math.inf else str(int(vd))
        lines = [
            f"n: {self.n}",
            f"q: {self.q}",
            f"k: {self.k}",
            f"d: {self.d}",
            f"ones_row: {str(self.ones_row).lower()}",
            f"subgroup_order: {self.subgroup_order}",
            f"gamma_size: {self.gamma_size}",
            f"coset_count: {self.coset_count}",
            f"sweep_size: {self.sweep_size}",
            f"syndrome: {' '.join(str(x) for x in self.syndrome)}",
            f"bucket_size: {self.bucket_size}",
            f"verified_distance: {vd_txt}",
            f"guaranteed_floor: {self.guaranteed_floor}",
            f"seed: {self.seed if self.seed is not None else 'none'}",
        ]
        return "\n".join(lines) + "\n"


def syndrome_buckets(
    code: LinearCode,
    assume_ones_row: bool = True,
    budget: int = DEFAULT_SWEEP_BUDGET,
) -> tuple[dict[tuple[int, ...], list[Perm]], MatrixGF]:
    """Bucket the coset representatives of K by syndrome.

    Returns ({syndrome: representatives}, check matrix).  Every g in K keeps
    residues, so each translate g o rep has the syndrome of rep.  The budget
    counts cosets.
    """
    check = parity_check_with_ones_row(code) if assume_ones_row else parity_check(code)
    buckets: dict[tuple[int, ...], list[Perm]] = {}
    for rep in coset_representatives(code.n, code.spec.q, budget):
        buckets.setdefault(phi(rep, check), []).append(rep)
    return buckets, check


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
    d = code.d if code.d is not None else min_distance(code)
    members = [tuple(g) for g in gamma_prime]
    if not members:
        raise ParameterError("gamma_prime must be nonempty")
    kspec = ResidueSubgroupSpec.for_params(n, q)
    for g in members:
        if not kspec.contains(g):
            raise PreconditionViolated(f"{g} is outside the residue subgroup")
    if code_min_distance(members) < d:
        raise PreconditionViolated(
            "gamma_prime min distance is below the code distance"
        )
    k_order = kspec.order
    coset_count = math.factorial(n) // k_order
    sweep = coset_count * len(members)
    if sweep > budget:
        raise BudgetExceeded(f"sweep of {sweep} translates exceeds budget {budget}")

    buckets, _check = syndrome_buckets(code, assume_ones_row, budget)
    syndrome, reps = min(buckets.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    bucket = [compose(g, rep) for rep in reps for g in members]
    verified = code_min_distance(bucket)
    if verified < d:
        raise VerificationFailed(
            f"bucket distance {verified} fell below the guaranteed {d}"
        )
    _, floor = general_firstbound(n, q, k, len(members), ones_row=assume_ones_row)
    pc = PermutationCode(n, bucket, _distance=verified)
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


# ---------------------------------------------------------------------------
# Exact clique machinery (shared by the small-case oracles)


def _greedy_orders(n: int, neigh: list[int]) -> list[list[int]]:
    orders = [list(range(n))]
    orders.append(sorted(range(n), key=lambda v: -neigh[v].bit_count()))
    rng = random.Random(987654321)
    for _ in range(6):
        o = list(range(n))
        rng.shuffle(o)
        orders.append(o)
    return orders


def _max_clique(neigh: list[int]) -> list[int]:
    """Exact maximum clique on a bitmask adjacency list (branch and bound
    with greedy coloring, greedy seeding for the incumbent)."""
    n = len(neigh)
    if n == 0:
        return []
    best: list[int] = []
    for order in _greedy_orders(n, neigh):
        cur: list[int] = []
        allowed = (1 << n) - 1
        for v in order:
            if allowed >> v & 1:
                cur.append(v)
                allowed &= neigh[v]
        if len(cur) > len(best):
            best = cur
    best_size = len(best)
    best_set = sorted(best)

    def expand(cand: int, cur: list[int]) -> None:
        nonlocal best_size, best_set
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

    expand((1 << n) - 1, [])
    return sorted(best_set)


def _greedy_clique_seeded(neigh: list[int], seed: int) -> list[int]:
    n = len(neigh)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    cur: list[int] = []
    allowed = (1 << n) - 1
    for v in order:
        if allowed >> v & 1:
            cur.append(v)
            allowed &= neigh[v]
    return sorted(cur)


def _distance_graph(members: list[Perm], d: int) -> list[int]:
    n = len(members)
    neigh = [0] * n
    for i in range(n):
        a = members[i]
        for j in range(i + 1, n):
            if perm_hamming(a, members[j]) >= d:
                neigh[i] |= 1 << j
                neigh[j] |= 1 << i
    return neigh


def max_code_in_K(
    spec: ResidueSubgroupSpec,
    d: int,
    mode: str = "exact",
    budget: int = DEFAULT_SUBGROUP_BUDGET,
    seed: int | None = None,
) -> PermutationCode:
    """Largest (exact mode) or greedily grown code inside K at distance >= d.

    Exact mode pins the identity (K is a group, so translation loses nothing)
    and runs branch-and-bound clique search; greedy mode runs one seeded pass.
    """
    members = list(subgroup_K(spec, budget).members)
    if mode == "exact":
        if len(members) > MAX_CLIQUE_VERTICES:
            raise BudgetExceeded(
                f"|K| = {len(members)} is too large for exact clique search"
            )
        ident = identity_perm(spec.n)
        cands = [p for p in members if p != ident and perm_hamming(p, ident) >= d]
        neigh = _distance_graph(cands, d)
        clique = _max_clique(neigh)
        chosen = [ident] + [cands[v] for v in clique]
    elif mode == "greedy":
        if seed is None:
            raise ParameterError("greedy mode requires a seed")
        neigh = None
        order = list(range(len(members)))
        random.Random(seed).shuffle(order)
        chosen = []
        for idx in order:
            p = members[idx]
            if all(perm_hamming(p, c) >= d for c in chosen):
                chosen.append(p)
    else:
        raise ParameterError(f"unknown mode {mode!r}")
    pc = PermutationCode(spec.n, chosen)
    dist = code_min_distance(pc)
    if dist < d:
        raise VerificationFailed("selected set fails its own distance floor")
    return pc


# ---------------------------------------------------------------------------
# Binary codes and the involution lift


def max_binary_code(r: int, d: int, budget: int = MAX_CLIQUE_VERTICES) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Exact A_2(r, d) with a witness, zero word pinned by translation
    invariance.  Returns (size, witness bit tuples)."""
    if r < 1 or d < 1:
        raise ParameterError("need r >= 1 and d >= 1")
    if r > 24:
        raise BudgetExceeded(f"2^{r} words is too many to enumerate")
    words = [x for x in range(1, 2**r) if x.bit_count() >= d]
    if len(words) > budget:
        raise BudgetExceeded(
            f"{len(words)} candidate words exceed the clique budget {budget}"
        )
    neigh = [0] * len(words)
    for i, x in enumerate(words):
        for j in range(i + 1, len(words)):
            if (x ^ words[j]).bit_count() >= d:
                neigh[i] |= 1 << j
                neigh[j] |= 1 << i
    clique = _max_clique(neigh)
    chosen = [0] + [words[v] for v in clique]
    witness = tuple(
        tuple((x >> (r - 1 - b)) & 1 for b in range(r)) for x in sorted(chosen)
    )
    return len(chosen), witness


def default_lift_pairs(r: int) -> tuple[tuple[int, int], ...]:
    return tuple((2 * i + 1, 2 * i + 2) for i in range(r))


def involution_pairs(spec: ResidueSubgroupSpec) -> tuple[tuple[int, int], ...]:
    """The 2-element orbits of a subgroup shaped like (S_2)^r.

    Raises SpecMismatch when any orbit has more than two elements.
    """
    pairs = []
    for cls in spec.residue_classes():
        if len(cls) > 2:
            raise SpecMismatch(
                f"class {cls} has size {len(cls)}; subgroup is not (S_2)^r"
            )
        if len(cls) == 2:
            pairs.append((cls[0], cls[1]))
    return tuple(sorted(pairs))


def binary_lift(bits, n: int | None = None, pairs=None) -> Perm:
    """Lift a bit vector to a product of disjoint transpositions.

    Bit i = 1 applies the i-th transposition pair; the default pairs are
    (1,2), (3,4), ... on n = 2*len(bits) points.  Distances double: lifted
    words at binary distance t sit at permutation distance 2t.
    """
    bits = tuple(bits)
    r = len(bits)
    if pairs is None:
        pairs = default_lift_pairs(r)
    pairs = tuple(tuple(p) for p in pairs)
    if len(pairs) != r:
        raise ParameterError(f"{r} bits need {r} pairs, got {len(pairs)}")
    flat = [x for p in pairs for x in p]
    if len(set(flat)) != len(flat):
        raise ParameterError("transposition pairs overlap")
    if n is None:
        n = max(flat)
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
    """
    pairs = involution_pairs(spec)
    r = len(pairs)
    if r == 0:
        return PermutationCode(spec.n, [identity_perm(spec.n)]), 1
    need = (d + 1) // 2
    size, witness = max_binary_code(r, need)
    lifted = [binary_lift(bits, n=spec.n, pairs=pairs) for bits in witness]
    return PermutationCode(spec.n, lifted), size


# ---------------------------------------------------------------------------
# Tiny-n exact oracle


def brute_force_max_code(n: int, d: int, budget: int = 120) -> PermutationCode:
    """Exact maximum permutation code in S_n, witness included (tiny n only)."""
    if math.factorial(n) > budget:
        raise BudgetExceeded(f"{n}! exceeds budget {budget}")
    if d < 1 or d > n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}")
    ident = identity_perm(n)
    cands = [p for p in all_permutations(n) if perm_hamming(p, ident) >= d]
    neigh = _distance_graph(cands, d)
    clique = _max_clique(neigh)
    return PermutationCode(n, [ident] + [cands[v] for v in clique])


def brute_force_M(n: int, d: int, budget: int = 120) -> int:
    """Exact M(n, d) for tiny n."""
    return brute_force_max_code(n, d, budget).size


# ---------------------------------------------------------------------------
# Permutation code files.  Format: '#' comments, header "n size d" (d may be
# "inf"), then one permutation per line in one-line notation.


def write_permutation_code(pc: PermutationCode, path, distance=None) -> None:
    d = distance if distance is not None else code_min_distance(pc)
    dtxt = "inf" if d == math.inf else str(int(d))
    lines = [f"{pc.n} {pc.size} {dtxt}"]
    for p in pc.members:
        lines.append(" ".join(str(x) for x in p))
    Path(path).write_text("\n".join(lines) + "\n")


def read_permutation_code(path) -> tuple[int, int, int | float, list[Perm]]:
    """Parse a permutation code file; returns (n, declared size, declared d,
    rows as written).  Duplicate rows are preserved for the verifier to catch."""
    text = Path(path).read_text()
    header: tuple[int, int, int | float] | None = None
    rows: list[Perm] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if header is None:
            if len(toks) != 3:
                raise ParseError(f"{path}:{lineno}: header must be 'n size d'")
            try:
                n = int(toks[0])
                size = int(toks[1])
                dval: int | float = math.inf if toks[2] == "inf" else int(toks[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad header token") from None
            header = (n, size, dval)
            continue
        try:
            p = tuple(int(t) for t in toks)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer token") from None
        if len(p) != header[0]:
            raise ParseError(
                f"{path}:{lineno}: expected {header[0]} entries, got {len(p)}"
            )
        if not is_permutation(p):
            raise ParseError(f"{path}:{lineno}: not a permutation of 1..{header[0]}")
        rows.append(p)
    if header is None:
        raise ParseError(f"{path}: empty file")
    return header[0], header[1], header[2], rows
