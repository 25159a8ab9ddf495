"""Linear code machinery against small brute-force oracles.

The oracles enumerate the full message space with plain field arithmetic
and touch neither the package's field tables nor the information-set search
used by min_distance, so agreement is meaningful.
"""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from permcodes.errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotFullWeight,
    NotInDual,
    ParameterError,
    ParseError,
)
from permcodes import linear
from permcodes.gf import field_make
from permcodes.linear import (
    LinearCode,
    MatrixGF,
    dual,
    find_full_weight_dual_codeword,
    in_dual,
    min_distance,
    normalize_first_row_ones,
    parity_check,
    parity_check_with_ones_row,
    random_code_search,
    read_code_file,
    rref,
    singleton_defect,
    write_code_file,
)
from permcodes.mds import extended_rs, reed_solomon

from oracles import (
    check_columns_independent,
    nonzero_weight_set,
    oracle_add,
    oracle_codewords,
    oracle_min_distance,
    oracle_mul,
    oracle_ones_row_check,
    oracle_tables,
    oracle_weights,
)


SMALL_CODES = [
    ("rs-7-6-2", lambda: reed_solomon(7, 6, 2)),
    ("rs-7-6-4", lambda: reed_solomon(7, 6, 4)),
    ("rs-5-4-2", lambda: reed_solomon(5, 4, 2)),
    ("xrs-5-3", lambda: extended_rs(5, 3)),
    ("xrs-4-2", lambda: extended_rs(4, 2)),
    ("gf8-custom", lambda: LinearCode(field_make(8), [[1, 0, 2, 3], [0, 1, 5, 1]])),
    ("gf4-rep", lambda: LinearCode(field_make(4), [[1, 1, 1, 1, 1]])),
    # information sets with r = 5, 3, 2 fresh pivots: crediting the last two
    # sets one level early would stop the search at weight 3, not 2
    ("gf2-10-5", lambda: LinearCode(field_make(2), [
        [1, 1, 0, 0, 0, 0, 1, 0, 0, 0],
        [1, 0, 0, 1, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 1, 0, 0, 1, 0],
        [0, 0, 1, 1, 1, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 0, 0, 0, 1, 1, 1],
    ])),
]


@pytest.mark.parametrize("name,make", SMALL_CODES, ids=[n for n, _ in SMALL_CODES])
def test_min_distance_matches_oracle(name, make):
    code = make()
    assert min_distance(code) == oracle_min_distance(code)


@pytest.mark.parametrize("name,make", SMALL_CODES, ids=[n for n, _ in SMALL_CODES])
def test_weight_set_matches_oracle(name, make):
    code = make()
    assert nonzero_weight_set(code) == oracle_weights(code)


@st.composite
def generators(draw, qs=(2, 3, 4, 5, 7, 8, 9, 16), max_messages=math.inf):
    """A full-rank k x n generator over GF(q), n <= 9, 1 <= k <= n - 1 and
    q^k <= max_messages, whose columns are random, zero, or copies of an
    earlier column."""
    q = draw(st.sampled_from(qs))
    n = draw(st.integers(2, 9))
    kmax = n - 1
    while q**kmax > max_messages:
        kmax -= 1
    k = draw(st.integers(1, kmax))
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat")))
        if kind == "zero":
            cols.append([0] * k)
        elif kind == "repeat" and cols:
            cols.append(draw(st.sampled_from(cols)))
        else:
            cols.append([draw(st.integers(0, q - 1)) for _ in range(k)])
    spec = field_make(q)
    rows = [list(r) for r in zip(*cols)]
    assume(rref(MatrixGF(spec, rows))[1] == k)
    return spec, rows


@settings(max_examples=200, deadline=None)
@given(generators(max_messages=1024))
def test_min_distance_matches_oracle_on_drawn_codes(drawn):
    spec, rows = drawn
    code = LinearCode(spec, rows)
    assert min_distance(code) == oracle_min_distance(code)
    assert min(nonzero_weight_set(LinearCode(spec, rows))) == code.d


def test_codeword_count_and_distance_cache():
    code = reed_solomon(5, 4, 2)
    assert code.d is None
    got = min_distance(code)
    assert code.d == got == 3


def test_linear_code_validation():
    spec = field_make(5)
    with pytest.raises(ParameterError):
        LinearCode(spec, [[1, 2], [2, 4]])  # dependent rows
    with pytest.raises(ParameterError):
        LinearCode(spec, [[1, 0], [0, 1]])  # k == n
    with pytest.raises(ParameterError):
        LinearCode(spec, [[1, 5, 0]])  # entry outside the field


def test_rref_pivots():
    spec = field_make(5)
    m = MatrixGF(spec, [[0, 2, 4], [0, 1, 3]])
    r, rank, pivots = rref(m)
    assert rank == 2
    assert pivots == (1, 2)
    # pivot columns reduce to unit vectors
    assert [row[1] for row in r.rows] == [1, 0]
    assert [row[2] for row in r.rows] == [0, 1]


def test_parity_check_annihilates_generator():
    for _, make in SMALL_CODES:
        code = make()
        h = parity_check(code)
        assert h.nrows == code.n - code.k and h.ncols == code.n
        add, mul, _, _ = code.spec.tables()
        for grow in code.generator.rows:
            for hrow in h.rows:
                acc = 0
                for x, y in zip(grow, hrow):
                    acc = add[acc][mul[x][y]]
                assert acc == 0


def test_dual_of_dual_is_original():
    code = reed_solomon(5, 4, 2)
    dd = dual(dual(code))
    assert sorted(oracle_codewords(dd)) == sorted(oracle_codewords(code))


@settings(max_examples=150, deadline=None)
@given(generators())
def test_parity_check_is_a_full_rank_annihilator(drawn):
    spec, rows = drawn
    code = LinearCode(spec, rows)
    h = parity_check(code)
    add, mul = oracle_tables(spec)
    for grow in rows:
        for hrow in h.rows:
            acc = 0
            for x, y in zip(grow, hrow):
                acc = add[acc][mul[x][y]]
            assert acc == 0
    assert rref(h)[1] == code.n - code.k


@settings(max_examples=150, deadline=None)
@given(generators())
def test_dual_of_dual_has_the_same_reduced_generator(drawn):
    spec, rows = drawn
    code = LinearCode(spec, rows)
    assert rref(dual(dual(code)).generator)[0].rows == rref(code.generator)[0].rows


@settings(max_examples=150, deadline=None)
@given(generators(), st.randoms(use_true_random=False))
def test_rref_is_idempotent_on_permuted_columns(drawn, rnd):
    spec, rows = drawn
    order = list(range(len(rows[0])))
    rnd.shuffle(order)
    m = MatrixGF(spec, [[row[c] for c in order] for row in rows])
    once, rank, pivots = rref(m)
    twice, rank2, pivots2 = rref(once)
    assert (twice.rows, rank2, pivots2) == (once.rows, rank, pivots)
    for i, c in enumerate(pivots):
        assert [row[c] for row in once.rows] == [int(j == i) for j in range(rank)]


def test_dual_dimensions():
    code = reed_solomon(7, 6, 2)
    dc = dual(code)
    assert (dc.n, dc.k) == (6, 4)


def test_in_dual():
    code = reed_solomon(7, 6, 2)
    for w in oracle_codewords(dual(code)):
        assert in_dual(code, w)
    assert not in_dual(code, tuple(code.generator.rows[0]))
    with pytest.raises(DimensionMismatch):
        in_dual(code, (1, 2))


@settings(max_examples=150, deadline=None)
@given(generators(), st.data())
def test_in_dual_matches_the_inner_product_oracle_on_vectors_with_zeros(drawn, data):
    # dual words as combinations of parity-check rows, some coefficients zero,
    # and the same words with one entry changed; galoistools does the sums
    spec, rows = drawn
    code = LinearCode(spec, rows)
    add, mul = oracle_tables(spec)
    elements = st.sampled_from([0, 0, *range(spec.q)])
    vec = [0] * code.n
    for h in parity_check(code).rows:
        c = data.draw(elements)
        vec = [add[x][mul[c][y]] for x, y in zip(vec, h)]
    if data.draw(st.booleans()):
        vec[data.draw(st.integers(0, code.n - 1))] = data.draw(elements)
    want = True
    for row in rows:
        acc = 0
        for x, y in zip(row, vec):
            acc = add[acc][mul[x][y]]
        want = want and acc == 0
    assert in_dual(code, tuple(vec)) == want


def test_checks_with_ones_row():
    # both generator rows are orthogonal to the all-ones vector over GF(5)
    spec = field_make(5)
    code = LinearCode(spec, [[1, 4, 0, 0], [0, 0, 1, 4]])
    h = parity_check_with_ones_row(code)
    assert set(h.rows[0]) == {1}
    assert h.nrows == code.n - code.k and h.ncols == code.n
    for row in h.rows:
        assert in_dual(code, row)
    _, rank, _ = rref(h)
    assert rank == code.n - code.k
    # a code whose dual misses the all-ones vector is rejected
    with pytest.raises(NotInDual):
        parity_check_with_ones_row(reed_solomon(7, 6, 2))


@settings(max_examples=150, deadline=None)
@given(generators())
def test_ones_row_check_matches_the_greedy_oracle(drawn):
    # each drawn code, and the code with one more column that makes every
    # generator row sum to zero, so that the all-ones vector is in its dual
    spec, rows = drawn
    add, _ = oracle_tables(spec)
    balanced = []
    for row in rows:
        total = 0
        for x in row:
            total = add[total][x]
        balanced.append(row + [next(y for y in range(spec.q) if add[total][y] == 0)])
    for g in (rows, balanced):
        code = LinearCode(spec, g)
        try:
            want = oracle_ones_row_check(code)
        except NotInDual:
            with pytest.raises(NotInDual):
                parity_check_with_ones_row(code)
        else:
            assert parity_check_with_ones_row(code) == want


def test_normalize_first_row_ones_preserves_metric(monkeypatch):
    code = reed_solomon(7, 6, 4)
    w = find_full_weight_dual_codeword(code, seed=7)
    assert w is not None
    assert in_dual(code, w) and 0 not in w
    norm = normalize_first_row_ones(code, w)
    assert in_dual(norm, (1,) * code.n)
    assert nonzero_weight_set(norm) == nonzero_weight_set(code)
    # the oracle leaves no cached distance behind: both sides are searched
    searched = []
    search = linear._information_sets
    monkeypatch.setattr(linear, "_information_sets", lambda c: searched.append(c) or search(c))
    assert min_distance(norm) == min_distance(code)
    assert any(c is norm for c in searched)
    # and the combined pipeline yields a usable ones-row check matrix
    h = parity_check_with_ones_row(norm)
    assert set(h.rows[0]) == {1}


@settings(max_examples=150, deadline=None)
@given(generators(max_messages=1024), st.integers(0, 100))
def test_normalization_carries_the_distance_a_fresh_search_finds(drawn, seed):
    # a monomial rescaling keeps every weight, so the rescaled code may carry
    # the input's distance instead of searching again
    spec, rows = drawn
    code = LinearCode(spec, rows)
    w = find_full_weight_dual_codeword(code, seed=seed)
    assume(w is not None)
    assert normalize_first_row_ones(code, w).d is None  # nothing to carry yet
    d = min_distance(code)
    norm = normalize_first_row_ones(code, w)
    assert norm.d == d
    assert min_distance(LinearCode(spec, norm.generator.rows)) == d


def test_normalize_rejects_bad_witness():
    code = reed_solomon(7, 6, 4)
    with pytest.raises(NotFullWeight):
        normalize_first_row_ones(code, (1, 2, 3, 0, 1, 1))
    with pytest.raises(NotInDual):
        normalize_first_row_ones(code, (1, 1, 1, 1, 1, 2))
    with pytest.raises(DimensionMismatch):
        normalize_first_row_ones(code, (1, 1, 1))


def test_full_weight_search_finds_known_word():
    # dual of the [6,2]_7 code is [6,4] and has full-weight words
    code = reed_solomon(7, 6, 2)
    w = find_full_weight_dual_codeword(code, seed=1)
    assert w is not None and 0 not in w and in_dual(code, w)


def test_full_weight_search_is_deterministic():
    code = reed_solomon(7, 6, 4)
    assert find_full_weight_dual_codeword(code, seed=9) == find_full_weight_dual_codeword(
        code, seed=9
    )


def test_full_weight_search_honest_none():
    # the dual here has weight set {4} only (checked by enumeration below),
    # so no full-weight (weight-5) dual word exists and the search must say so
    code = extended_rs(4, 3)
    assert oracle_weights(dual(code)) == {4}
    assert find_full_weight_dual_codeword(code, seed=1) is None


def test_full_weight_fallback_returns_first_word_in_message_order():
    # codes the randomized route skips (k > q - 2, or a zero row in the
    # non-pivot block) and the exhaustive one takes (q^(n-k) <= 10^4)
    codes = [reed_solomon(q, q, q - 1) for q in (2, 3, 4, 5, 7, 8, 9)]
    codes += [extended_rs(q, k) for q in (3, 4, 5, 7, 8, 9) for k in (q - 1, q)]
    rng = random.Random(2024)
    for q, n, k in [(2, 8, 4), (2, 10, 3), (3, 7, 3), (3, 8, 2), (4, 7, 3), (4, 8, 3),
                    (5, 7, 4), (5, 6, 4), (5, 7, 2), (7, 6, 2), (8, 6, 3)] * 3:
        g = [[int(i == j) for j in range(k)] + [rng.randrange(q) for _ in range(n - k)]
             for i in range(k)]
        if k <= q - 2:
            g[rng.randrange(k)][k:] = [0] * (n - k)
        codes.append(LinearCode(field_make(q), g))
    found = 0
    for code in codes:
        q, n, k = code.spec.q, code.n, code.k
        assert q ** (n - k) <= 10**4
        r, _, pivots = rref(code.generator)
        a_block = [[row[j] for j in range(n) if j not in pivots] for row in r.rows]
        assert k > q - 2 or not all(any(row) for row in a_block)
        want = next((w for w in oracle_codewords(dual(code)) if all(w)), None)
        assert find_full_weight_dual_codeword(code, seed=1) == want, code
        found += want is not None
    assert found >= 20


def test_full_weight_search_covers_long_repetition_codes():
    # the dual of [n,1]_2 has 2^(n-1) words, more than the default budget for
    # n = 18, but the one combination of check rows with no zero coefficient
    # is the all-ones word, which lies in the dual for even n only
    spec = field_make(2)
    assert find_full_weight_dual_codeword(LinearCode(spec, [[1] * 18]), seed=1) == (1,) * 18
    assert find_full_weight_dual_codeword(LinearCode(spec, [[1] * 17]), seed=1) is None


@settings(max_examples=200, deadline=None)
@given(generators(max_messages=1024), st.integers(0, 100))
def test_full_weight_search_matches_the_dual_oracle(drawn, seed):
    # the drawn rows generate the dual, so q^(n-k) <= 1024 words to check
    spec, rows = drawn
    code = dual(LinearCode(spec, rows))
    w = find_full_weight_dual_codeword(code, seed=seed)
    words = oracle_codewords(dual(code))
    if w is None:
        assert not any(all(v) for v in words)
    else:
        assert all(w) and w in words


@pytest.mark.parametrize("make,seed,route,want", [
    (lambda: reed_solomon(7, 6, 2), 1, "random", (1, 3, 5, 2, 6, 4)),
    (lambda: extended_rs(5, 3), 5, "random", (3, 1, 2, 1, 3, 4)),
    (lambda: extended_rs(8, 3), 2, "random", (1, 2, 2, 7, 7, 1, 1, 1, 3)),
    (lambda: extended_rs(9, 5), 3, "random", (8, 3, 4, 5, 6, 4, 4, 5, 6, 8)),
    (lambda: LinearCode(field_make(3), [[1, 0, 2, 1, 2, 1], [0, 1, 2, 2, 2, 2]]), 1,
     "exhaustive", (2, 2, 1, 1, 1, 2)),
    (lambda: LinearCode(field_make(4), [[1, 0, 0, 1, 3, 2], [0, 1, 0, 1, 3, 1],
                                        [0, 0, 1, 0, 1, 3]]), 1,
     "exhaustive", (3, 1, 3, 1, 1, 3)),
    (lambda: extended_rs(5, 4), 1, "exhaustive", None),
])
def test_full_weight_search_frozen_values(make, seed, route, want):
    # values computed by the earlier implementation of both routes; the
    # random route is taken when k <= q - 2 and no column of H is zero
    code = make()
    q, k = code.spec.q, code.k
    random_route = k <= q - 2 and all(any(col) for col in zip(*parity_check(code).rows))
    assert route == ("random" if random_route else "exhaustive")
    assert find_full_weight_dual_codeword(code, seed=seed) == want


def oracle_columns_independent(matrix, t):
    """No nonzero coefficient vector over any t columns sums them to zero,
    with galoistools arithmetic (no row reduction)."""
    spec = matrix.spec
    for cols in itertools.combinations(range(matrix.ncols), t):
        for coeffs in itertools.product(range(spec.q), repeat=t):
            if not any(coeffs):
                continue
            sums = []
            for row in matrix.rows:
                acc = 0
                for c, j in zip(coeffs, cols):
                    acc = oracle_add(spec, acc, oracle_mul(spec, c, row[j]))
                sums.append(acc)
            if not any(sums):
                return False
    return True


def test_check_columns_independent_matches_subset_rank():
    # a t-subset of columns has rank t exactly when no nonzero combination
    # of it vanishes, which the oracle checks without row reduction
    code = reed_solomon(7, 6, 2)
    g = code.generator
    spec = code.spec
    gf4 = field_make(4)
    matrices = [
        g,
        parity_check(code),
        parity_check(extended_rs(4, 2)),
        LinearCode(field_make(8), [[1, 0, 2, 3], [0, 1, 5, 1]]).generator,
        # column 1 is 2 * column 0 over GF(4); no column repeats
        MatrixGF(gf4, [[1, 2, 1], [2, 3, 0]]),
        MatrixGF(field_make(3), [[1, 0, 1, 1], [0, 1, 1, 2], [1, 1, 2, 0]]),
    ]
    outcomes = set()
    for m in matrices:
        for t in range(1, m.nrows + 1):
            want = oracle_columns_independent(m, t)
            assert check_columns_independent(m, t) == want, (m, t)
            outcomes.add(want)
    assert outcomes == {True, False}
    with pytest.raises(ParameterError):
        check_columns_independent(g, 3)  # more columns than rows
    # a matrix with a repeated column fails at t = 2
    rep = MatrixGF(spec, [[1, 1, 0], [2, 2, 1]])
    assert check_columns_independent(rep, 1)
    assert not check_columns_independent(rep, 2)


def test_min_distance_budget():
    code = reed_solomon(7, 6, 4)
    with pytest.raises(BudgetExceeded):
        min_distance(LinearCode(code.spec, code.generator.rows), budget=10)


def test_singleton_defect():
    assert singleton_defect(reed_solomon(7, 6, 4)) == 0
    found = random_code_search(6, 2, 4, 4, seed=3)
    assert found is not None
    assert singleton_defect(found) == 1


def test_random_code_search_deterministic():
    a = random_code_search(6, 2, 4, 4, seed=3)
    b = random_code_search(6, 2, 4, 4, seed=3)
    assert a is not None and b is not None
    assert a.generator.rows == b.generator.rows
    assert min_distance(a) == 4
    # Singleton-impossible request is rejected without sampling
    assert random_code_search(6, 3, 5, 4, seed=1) is None


def test_code_file_round_trip(tmp_path):
    code = reed_solomon(7, 6, 4)
    path = tmp_path / "code.txt"
    write_code_file(code, path)
    back = read_code_file(path)
    assert back.spec.q == 7
    assert back.generator.rows == code.generator.rows


def test_code_file_parse_errors(tmp_path):
    # name: (file text, message after the path); line numbers count every line
    cases = {
        "empty.txt": ("", ": empty file"),
        "badhead.txt": ("5 x 2\n1 0\n0 1\n", ":1: non-integer token"),
        "shorthead.txt": ("5 2\n1 0\n", ":1: header must be 'q n k'"),
        "badrow.txt": ("5 3 2\n1 0 0\n0 1\n", ": row 2 has 2 entries, expected 3"),
        "badentry.txt": ("5 3 2\n1 0 9\n0 1 0\n", ": row 1 entry 9 out of range for GF(5)"),
        "missingrow.txt": ("5 3 2\n1 0 0\n", ": expected 2 generator rows, found 1"),
        "indented_comment.txt": ("   # q n k\n5 2\n", ":2: header must be 'q n k'"),
        "glued_comment.txt": ("#1 2 3\n5 x 1\n", ":2: non-integer token"),
        "late_header.txt": ("\n  \t\n# code\n\n5 3\n", ":5: header must be 'q n k'"),
        "trailing_hash.txt": ("5 3 1 # q n k\n1 2 3\n", ":1: non-integer token"),
        "badtoken.txt": ("5 3 2\n# rows\n1 0 0\n0 y 1\n", ":4: non-integer token"),
    }
    for name, (text, message) in cases.items():
        p = tmp_path / name
        p.write_text(text)
        with pytest.raises(ParseError) as exc:
            read_code_file(p)
        assert str(exc.value) == f"{p}{message}", name


def test_code_file_comments_and_blanks(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# comment\n5 3 1\n\n1 2 3\n")
    code = read_code_file(p)
    assert (code.n, code.k) == (3, 1)
