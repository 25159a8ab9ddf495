"""Field construction and arithmetic.

The frozen moduli below were derived by hand from the tie-break rule
(lexicographically smallest coefficient tuple, constant term first, among
monic irreducibles) and are cross-checked here by exhaustive field-axiom
verification, which would fail for any reducible modulus.
"""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint, isprime, nextprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

from permcodes.errors import BudgetExceeded, ParameterError
from permcodes.gf import (
    MAX_FIELD_ORDER,
    FieldSpec,
    factor_prime_power,
    field_make,
    is_prime,
    is_prime_power,
    next_prime,
    next_prime_power,
)

from oracles import oracle_add, oracle_mul


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for x in range(-3, 40):
        assert is_prime(x) == (x in primes)
    for x in range(40, 5001):
        assert is_prime(x) == isprime(x), x


def test_prime_power_factoring():
    for q, p, m in [(2, 2, 1), (7, 7, 1), (8, 2, 3), (9, 3, 2), (81, 3, 4), (128, 2, 7)]:
        got = factor_prime_power(q)
        assert (got.p, got.m, got.q) == (p, m, q)
    for bad in (0, 1, 6, 10, 12, 100):
        assert not is_prime_power(bad)
        with pytest.raises(ParameterError, match=f"^{bad} is not a prime power$"):
            factor_prime_power(bad)
    for q in range(2, 5001):
        factors = factorint(q)
        if len(factors) == 1:
            [(p, m)] = factors.items()
            assert tuple(factor_prime_power(q)) == (p, m, q)
        else:
            assert not is_prime_power(q)
            with pytest.raises(ParameterError, match=f"^{q} is not a prime power$"):
                factor_prime_power(q)


def test_next_prime_is_inclusive():
    # smallest prime >= n, so primes map to themselves
    assert next_prime(2) == 2
    assert next_prime(8) == 11
    assert next_prime(9) == 11
    assert next_prime(14) == 17
    assert next_prime(17) == 17
    assert next_prime(20) == 23
    assert next_prime(24) == 29
    for n in range(2, 5001):
        assert next_prime(n) == (n if isprime(n) else nextprime(n)), n
    for n in (1, 0, -5):
        with pytest.raises(ParameterError, match=r"^next_prime requires n >= 2$"):
            next_prime(n)


def test_next_prime_power_is_inclusive():
    assert next_prime_power(2) == 2
    assert next_prime_power(5) == 5
    assert next_prime_power(6) == 7
    assert next_prime_power(8) == 8
    assert next_prime_power(10) == 11
    assert next_prime_power(14) == 16
    assert next_prime_power(21) == 23
    assert next_prime_power(26) == 27
    # prime powers never beat the next prime, which is itself a prime power
    for n in range(2, 60):
        assert next_prime_power(n) <= next_prime(n)
    prime_powers = [q for q in range(2, 5100) if len(factorint(q)) == 1]
    for n in range(2, 5001):
        assert next_prime_power(n) == prime_powers[bisect_left(prime_powers, n)], n
    for n in (1, 0, -5):
        with pytest.raises(ParameterError, match=r"^next_prime_power requires n >= 2$"):
            next_prime_power(n)


def test_frozen_moduli():
    assert field_make(4).modulus == (1, 1, 1)  # x^2 + x + 1
    assert field_make(8).modulus == (1, 0, 1, 1)  # x^3 + x^2 + 1
    assert field_make(9).modulus == (1, 0, 1)  # x^2 + 1
    assert field_make(16).modulus == (1, 0, 0, 1, 1)  # x^4 + x^3 + 1
    # prime fields carry the degree-1 modulus x
    assert field_make(7).modulus == (0, 1)


def test_field_make_rejects_non_prime_powers():
    for bad in (1, 6, 10, 15):
        with pytest.raises(ParameterError, match=f"^{bad} is not a prime power$"):
            field_make(bad)


def test_reducible_modulus_is_rejected():
    # x^2 + 1 = (x + 1)^2 over GF(2): no element generates the nonzero codes
    with pytest.raises(ParameterError):
        FieldSpec(2, 2, (1, 0, 1)).tables()


def test_prime_field_matches_integer_arithmetic():
    add, mul, neg, _ = field_make(5).tables()
    for a in range(5):
        for b in range(5):
            assert add[a][b] == (a + b) % 5
            assert mul[a][b] == (a * b) % 5
        assert neg[a] == (-a) % 5


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms_exhaustive(q):
    """Commutativity, associativity, distributivity, identities, inverses.

    A reducible modulus would produce zero divisors and fail the inverse
    check, so this also certifies irreducibility of the frozen moduli.
    """
    add, mul, neg, inv = field_make(q).tables()
    els = list(range(q))
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert mul[a][0] == 0
        assert add[a][neg[a]] == 0
        if a != 0:
            assert mul[a][inv[a]] == 1
    for a in els:
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
    for a in els:
        for b in els:
            for c in els:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", [81, 125, 128, 243, 256, 343, 512, 625, 729, 1021, 1024])
def test_field_axioms_sampled_past_the_oracle(q):
    """The axioms of test_field_axioms_exhaustive on drawn elements, for the
    orders between the sympy oracle's 64 and MAX_FIELD_ORDER.  The tables are
    built on a spec of their own, so they are freed when the test ends."""
    spec = field_make(q)
    add, mul, neg, inv = FieldSpec(spec.p, spec.m, spec.modulus).tables()
    element = st.integers(0, q - 1)

    @settings(max_examples=200, deadline=None)
    @given(element, element, element)
    def axioms(a, b, c):
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert add[a][neg[a]] == 0
        assert inv[a] is None if a == 0 else mul[a][inv[a]] == 1
        assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
        assert add[add[a][b]][c] == add[a][add[b][c]]
        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]

    axioms()


@pytest.mark.parametrize("q", [4, 8, 9])
def test_multiplicative_group_order(q):
    mul = field_make(q).tables()[1]
    for a in range(1, q):
        x = 1
        for _ in range(q - 1):
            x = mul[x][a]
        assert x == 1
    # the group is cyclic, so some element has full order
    orders = []
    for a in range(1, q):
        x, order = a, 1
        while x != 1:
            x = mul[x][a]
            order += 1
        orders.append(order)
    assert max(orders) == q - 1


def test_tables_match_polynomial_oracle():
    """Every add and mul entry for q <= 64 against sympy's GF(p)[x] arithmetic
    modulo the frozen modulus, which must itself be irreducible."""
    for q in range(2, 65):
        if not is_prime_power(q):
            continue
        spec = field_make(q)
        assert gf_irreducible_p(list(reversed(spec.modulus)), spec.p, ZZ)
        add, mul, _, _ = spec.tables()
        for a in range(q):
            for b in range(q):
                assert add[a][b] == oracle_add(spec, a, b), (q, a, b)
                assert mul[a][b] == oracle_mul(spec, a, b), (q, a, b)


def test_tables_are_latin_squares():
    spec = field_make(8)
    add, mul, neg, inv = spec.tables()
    full = set(range(8))
    for row in add:
        assert set(row) == full
    for a in range(1, 8):
        assert set(mul[a][1:]) == full - {0}
        assert mul[a][inv[a]] == 1
    assert all(add[a][neg[a]] == 0 for a in range(8))


def test_field_budget_refuses_before_any_search(monkeypatch):
    # GF(1031) would need add and mul tables of 1031^2 entries each
    def search(*args):
        raise AssertionError("the modulus search ran")

    with monkeypatch.context() as patch:
        patch.setattr("permcodes.gf._monic_polys", search)
        for q in (1031, 2**24):
            with pytest.raises(BudgetExceeded,
                               match=rf"^GF\({q}\) is larger than the field budget 1024$"):
                field_make(q)
    with pytest.raises(BudgetExceeded):
        FieldSpec(1031, 1, (0, 1)).tables()
    spec = field_make(MAX_FIELD_ORDER)
    assert (spec.q, spec.m) == (1024, 10)
    assert spec._add is None  # no table is built until asked for
