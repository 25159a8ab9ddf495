"""Linear block codes over GF(q): duality, exact minimum distance, search.

Matrices store field elements as their integer codes; the FieldSpec they
belong to rides along on the object.  All distance work is exact.
min_distance is the Brouwer-Zimmermann information-set search: it enumerates
low-weight messages on several systematic generators and stops once a lower
bound on the weight of every word not yet met reaches the lightest word
found.  The full-weight dual search only forms combinations of the
parity-check rows with every coefficient nonzero: no other dual word can
have full weight.
"""

from __future__ import annotations

import random
from itertools import product
from operator import eq
from pathlib import Path

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotFullWeight,
    NotInDual,
    ParameterError,
    ParseError,
    SpecMismatch,
)
from .gf import FieldSpec, field_make

DEFAULT_DISTANCE_BUDGET = 10**7
DEFAULT_SEARCH_BUDGET = 100_000


class MatrixGF:
    """Immutable matrix over a FieldSpec; entries kept as integer codes."""

    __slots__ = ("spec", "rows")

    def __init__(self, spec: FieldSpec, rows) -> None:
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix needs at least one row and column")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise DimensionMismatch("ragged rows")
            for x in r:
                if not 0 <= x < spec.q:
                    raise ParameterError(f"entry {x} out of range for GF({spec.q})")
        self.spec = spec
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixGF)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.rows))

    def __repr__(self) -> str:
        return f"MatrixGF(GF({self.spec.q}), {self.nrows}x{self.ncols})"


def _rref_rows(rows: list[list[int]], spec: FieldSpec) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot column list)."""
    add, mul, neg, inv = spec.tables()
    m = len(rows)
    n = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pr = None
        for i in range(r, m):
            if rows[i][col]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][col]
        if pv != 1:
            s = inv[pv]
            srow = mul[s]
            rows[r] = [srow[x] for x in rows[r]]
        base = rows[r]
        for i in range(m):
            c = rows[i][col]
            if i != r and c:
                crow = mul[neg[c]]
                rows[i] = [add[x][crow[y]] for x, y in zip(rows[i], base)]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return rows, pivots


def rref(matrix: MatrixGF) -> tuple[MatrixGF, int, tuple[int, ...]]:
    """Reduced row echelon form, rank, and 0-based pivot columns."""
    rows, pivots = _rref_rows([list(r) for r in matrix.rows], matrix.spec)
    return MatrixGF(matrix.spec, rows), len(pivots), tuple(pivots)


class LinearCode:
    """An [n, k] linear code presented by a full-rank generator matrix."""

    __slots__ = ("spec", "n", "k", "generator", "_dmin")

    def __init__(self, spec: FieldSpec, generator) -> None:
        G = generator if isinstance(generator, MatrixGF) else MatrixGF(spec, generator)
        if G.spec != spec:
            raise SpecMismatch("generator matrix belongs to a different field spec")
        n = G.ncols
        k = G.nrows
        if not 0 < k < n:
            raise ParameterError(f"need 0 < k < n, got k={k}, n={n}")
        if len(_rref_rows([list(r) for r in G.rows], spec)[1]) != k:
            raise ParameterError("generator matrix rows are not independent")
        self.spec = spec
        self.n = n
        self.k = k
        self.generator = G
        self._dmin: int | None = None

    @property
    def d(self) -> int | None:
        """Cached exact minimum distance, None until computed."""
        return self._dmin

    def __repr__(self) -> str:
        dtxt = f", d={self._dmin}" if self._dmin is not None else ""
        return f"LinearCode([{self.n},{self.k}{dtxt}]_{self.spec.q})"


# ---------------------------------------------------------------------------
# Minimum distance


def _information_sets(code: LinearCode) -> list[tuple[int, list[list[int]]]]:
    """Systematic generators on successive information sets.

    Each set's row reduction runs on the columns no earlier set has pivoted
    on, followed by the used ones, so it takes as many fresh pivots r as the
    unused columns have rank; the rest of its k pivots come from used
    columns.  Sets are made until the unused columns are all zero.  Returns
    (r, rows) per set, the reduced rows restricted to the set's non-pivot
    columns: message m then gives a word of weight wt(m) on the pivots plus
    the weight of the sum of m's rows.
    """
    gen = code.generator.rows
    unused = list(range(code.n))
    used: list[int] = []
    sets = []
    while unused:
        order = unused + used
        rows, pivots = _rref_rows([[row[c] for c in order] for row in gen], code.spec)
        r = sum(p < len(unused) for p in pivots)
        if not r:
            break
        rest = [p for p in range(code.n) if p not in pivots]
        sets.append((r, [[row[p] for p in rest] for row in rows]))
        fresh = [order[p] for p in pivots[:r]]
        used += fresh
        unused = [c for c in unused if c not in fresh]
    return sets


def min_distance(code: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> int:
    """Exact minimum distance by the Brouwer-Zimmermann method; caches it.

    Level w enumerates, on each information set G_1, G_2, ... in turn, the
    messages of weight exactly w whose first nonzero coordinate is 1 (a
    word's weight is that of its scalar multiples).  The upper bound U is
    the lightest word met, starting at the Singleton bound n - k + 1.

    Lower bound: a word not yet met has a message of weight >= w + 1 on
    each set already done at level w, and >= w on the others.  Its weight
    on the r_i fresh pivots of G_i is then at least that minus the k - r_i
    pivots G_i shares with earlier sets, and fresh pivots of different sets
    are disjoint, so every unmet word weighs at least
        L = sum_{i done} max(0, w+1-(k-r_i)) + sum_{i not} max(0, w-(k-r_i)).
    The search stops, after any set, once L >= U; U is then the distance.
    At level k, G_1 (r_1 = k) has met every word, and L exceeds the weight
    of any word, so the search always ends by then.

    Work: there are at most n - k + 1 sets (the first takes k fresh pivots,
    every later one at least 1 of the other n - k columns), and level v
    costs C(k, v)(q-1)^(v-1) words per set, so a search that stops at level
    w costs at most (n - k + 1) times the sum of those for v <= w, never
    more than (n - k + 1)(q^k - 1)/(q - 1); a word is one pass over n - k
    entries.  The budget still gates q^k, as for a full scan.
    """
    if code._dmin is not None:
        return code._dmin
    if code.spec.q**code.k > budget:
        raise BudgetExceeded(
            f"{code.spec.q}^{code.k} messages exceed budget {budget}"
        )
    k = code.k
    sets = _information_sets(code)
    best = code.n - k + 1
    bound = sum(r == k for r, _ in sets)
    w = 0
    while bound < best:
        w += 1
        for r, rows in sets:
            # an early return leaves best <= bound, which ends the search too
            best = _lightest(code.spec, rows, w, best, bound)
            if w >= k - r:
                bound += 1
            if bound >= best:
                break
    code._dmin = best
    return best


def _lightest(spec: FieldSpec, rows: list[list[int]], w: int, best: int, floor: int) -> int:
    """min(best, lightest word of a weight-w message with leading 1).

    rows are a systematic generator's rows off its pivots, so a word weighs
    w plus the nonzeros of its row sum.  A DFS carries the partial sum; a
    leaf counts the entries where it equals minus the last scaled row.
    Returns as soon as the minimum reaches floor, below which no word lies.
    """
    add, mul, neg, _ = spec.tables()
    k = len(rows)
    m = len(rows[0])
    base = w + m
    scaled = [[[mul[c][x] for x in row] for c in range(1, spec.q)] for row in rows]
    negated = [[[neg[x] for x in s] for s in sc] for sc in scaled]

    def extend(v, start, left, lead):
        nonlocal best
        if left == 1:
            for i in range(start, k):
                for t in negated[i][:1] if lead else negated[i]:
                    wt = base - sum(map(eq, v, t))
                    if wt < best:
                        best = wt
                        if best <= floor:
                            return True
            return False
        for i in range(start, k - left + 1):
            for s in scaled[i][:1] if lead else scaled[i]:
                if extend([add[x][y] for x, y in zip(v, s)], i + 1, left - 1, False):
                    return True
        return False

    extend([0] * m, 0, w, True)
    return best


# ---------------------------------------------------------------------------
# Duality


def parity_check(code: LinearCode) -> MatrixGF:
    """An (n-k) x n full-rank matrix H with H c^T = 0 exactly on the code."""
    spec = code.spec
    _, _, neg, _ = spec.tables()
    rows, pivots = _rref_rows([list(r) for r in code.generator.rows], spec)
    pivot_set = set(pivots)
    n = code.n
    hrows = []
    for j in range(n):
        if j in pivot_set:
            continue
        h = [0] * n
        h[j] = 1
        for i, pc in enumerate(pivots):
            h[pc] = neg[rows[i][j]]
        hrows.append(h)
    return MatrixGF(spec, hrows)


def dual(code: LinearCode) -> LinearCode:
    """The dual code, generated by a parity check of the input."""
    return LinearCode(code.spec, parity_check(code))


def in_dual(code: LinearCode, vec: tuple[int, ...]) -> bool:
    """Is vec orthogonal to every generator row?"""
    if len(vec) != code.n:
        raise DimensionMismatch("vector length differs from code length")
    spec = code.spec
    add, mul, _, _ = spec.tables()
    for row in code.generator.rows:
        acc = 0
        for x, y in zip(row, vec):
            acc = add[acc][mul[x][y]]
        if acc:
            return False
    return True


def parity_check_with_ones_row(code: LinearCode) -> MatrixGF:
    """Parity check matrix whose first row is all ones.

    Requires the all-ones vector to lie in the dual; raises NotInDual
    otherwise.
    """
    ones = tuple([1] * code.n)
    if not in_dual(code, ones):
        raise NotInDual("all-ones vector is not in the dual code")
    # Row j of parity_check is 1 on the j-th non-pivot column and 0 on the
    # others, so a dual vector is the sum of the rows weighted by its entries
    # there, and ones is the sum of all rows.  Each row but the last is then
    # independent of ones and the rows before it, and the last is not.
    H = parity_check(code).rows
    return MatrixGF(code.spec, (ones,) + H[:-1])


# ---------------------------------------------------------------------------
# Equivalence and normalization


def normalize_first_row_ones(code: LinearCode, w: tuple[int, ...]) -> LinearCode:
    """Rescale coordinates by a full-weight dual codeword w.

    The returned code is monomially equivalent to the input (same length,
    dimension and weights, so it keeps any cached distance) and its dual
    contains the all-ones vector, so parity_check_with_ones_row applies.
    """
    n = code.n
    if len(w) != n:
        raise DimensionMismatch("dual codeword length differs from code length")
    if any(x == 0 for x in w):
        raise NotFullWeight("dual codeword has a zero coordinate")
    if not in_dual(code, w):
        raise NotInDual("vector is not in the dual code")
    spec = code.spec
    _, mul, _, _ = spec.tables()
    newg = [[mul[x][y] for x, y in zip(w, row)] for row in code.generator.rows]
    rescaled = LinearCode(spec, newg)
    rescaled._dmin = code._dmin
    return rescaled


def find_full_weight_dual_codeword(
    code: LinearCode, seed: int = 0, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[int, ...] | None:
    """Search for a dual codeword with no zero coordinate.

    Row j of the parity check H is 1 on the j-th non-pivot column and 0 on
    the other non-pivot columns, so w = sum m_j H_j has full weight only if
    every m_j is nonzero; both routes form only such w, at most budget each.
    The randomized route (k <= q-2 and no zero column of H) draws each m_j
    as minus a uniform nonzero scalar, in row order; each pivot entry is a
    nonzero linear form in the m_j, so a trial succeeds with probability at
    least 1 - k/(q-1).  The exhaustive route ((q-1)^(n-k-1) <= budget) fixes
    m_0 = 1, as scalar multiples share a weight, and runs the other m_j over
    the nonzero scalars in product order, so it returns the first full-weight
    dual word in message order.  Returns None when both come up empty.
    """
    spec = code.spec
    q = spec.q
    n, k = code.n, code.k
    add, mul, neg, _ = spec.tables()
    H = parity_check(code).rows

    def first_full_weight(messages):
        for m in messages:
            w = [0] * n
            for c, row in zip(m, H):
                scaled = mul[c]
                w = [add[x][scaled[y]] for x, y in zip(w, row)]
            if all(w):
                w = tuple(w)
                assert in_dual(code, w)
                return w
        return None

    w = None
    if k <= q - 2 and all(any(col) for col in zip(*H)):
        rng = random.Random(seed)
        w = first_full_weight([neg[rng.randrange(1, q)] for _ in H] for _ in range(budget))
    if w is None and (q - 1) ** (n - k - 1) <= budget:
        w = first_full_weight((1, *m) for m in product(range(1, q), repeat=n - k - 1))
    return w


# ---------------------------------------------------------------------------
# Search and invariants


def random_code_search(
    n: int,
    k: int,
    d: int,
    q: int,
    seed: int,
    trials: int = 1000,
    budget: int = DEFAULT_DISTANCE_BUDGET,
) -> LinearCode | None:
    """Seeded random search for an [n, k] code of exact minimum distance d.

    Draws systematic generator matrices (I_k | A) with uniform A.  Returns the
    first hit with its distance verified exactly and cached, or None.  A
    Singleton-infeasible request (d > n-k+1) returns None immediately.
    """
    if not (0 < k < n and d >= 1):
        raise ParameterError("need 0 < k < n and d >= 1")
    if d > n - k + 1:
        return None
    spec = field_make(q)
    rng = random.Random(seed)
    for _ in range(trials):
        g = []
        for i in range(k):
            row = [0] * k
            row[i] = 1
            row += [rng.randrange(q) for _ in range(n - k)]
            g.append(row)
        cand = LinearCode(spec, g)
        if min_distance(cand, budget) == d:
            return cand
    return None


def singleton_defect(code: LinearCode) -> int:
    """n - k + 1 - d, the gap to the Singleton bound (0 means MDS)."""
    return code.n - code.k + 1 - min_distance(code)


# ---------------------------------------------------------------------------
# Code files.  Format: optional '#' comment lines, then a header line
# "q n k", then k generator rows of n integer codes.


def write_code_file(code: LinearCode, path) -> None:
    _write_records(path, f"{code.spec.q} {code.n} {code.k}", code.generator.rows)


def _write_records(path, header: str, rows) -> None:
    """The header line, then one line of space-separated entries per row."""
    lines = [header, *(" ".join(map(str, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n")


def _file_records(path):
    """(line number, tokens) per line that is neither blank nor a # comment."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        toks = line.split()
        if toks and not toks[0].startswith("#"):
            yield lineno, toks


def read_code_file(path) -> LinearCode:
    rows: list[list[int]] = []
    header: tuple[int, int, int] | None = None
    for lineno, toks in _file_records(path):
        try:
            parts = [int(tok) for tok in toks]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-integer token") from None
        if header is None:
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: header must be 'q n k'")
            header = (parts[0], parts[1], parts[2])
            continue
        rows.append(parts)
    if header is None:
        raise ParseError(f"{path}: empty file")
    q, n, k = header
    if len(rows) != k:
        raise ParseError(f"{path}: expected {k} generator rows, found {len(rows)}")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ParseError(f"{path}: row {i + 1} has {len(row)} entries, expected {n}")
        for x in row:
            if not 0 <= x < q:
                raise ParseError(f"{path}: row {i + 1} entry {x} out of range for GF({q})")
    return LinearCode(field_make(q), rows)
