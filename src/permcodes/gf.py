"""Exact arithmetic in GF(p^m), plus prime and prime-power utilities.

Elements of GF(p^m) are encoded as integers 0..q-1: the base-p digits of the
code, least significant first, are the coefficients of the representative
polynomial (constant term first).  The canonical element order a_0, a_1, ...
used everywhere else in the package is simply code order, so a_0 = 0 and
a_1 = 1.  All arithmetic on codes goes through the lookup tables of
FieldSpec.tables().
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import NotAPrimePower, ParameterError


def _least_factor(n: int) -> int:
    """The smallest factor >= 2 of n >= 2, by trial division up to isqrt(n)."""
    return next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)


def is_prime(n: int) -> bool:
    """Deterministic trial division; fine for the desk-scale inputs used here."""
    return n >= 2 and _least_factor(n) == n


class PrimePower(NamedTuple):
    p: int
    m: int
    q: int


def factor_prime_power(q: int) -> PrimePower:
    """Split q into (p, m) with q = p^m and p prime, or raise NotAPrimePower."""
    if q < 2:
        raise NotAPrimePower(f"{q} is not a prime power")
    p = _least_factor(q)
    m = 0
    t = q
    while t % p == 0:
        t //= p
        m += 1
    if t != 1:
        raise NotAPrimePower(f"{q} is not a prime power")
    return PrimePower(p, m, q)


def is_prime_power(n: int) -> bool:
    try:
        factor_prime_power(n)
        return True
    except NotAPrimePower:
        return False


def _least_passing(n: int, test, name: str) -> int:
    """The smallest k >= n with test(k); name is the caller, for the n < 2 error."""
    if n < 2:
        raise ParameterError(f"{name} requires n >= 2")
    return next(filter(test, itertools.count(n)))


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    return _least_passing(n, is_prime, "next_prime")


def next_prime_power(n: int) -> int:
    """Smallest prime power >= n."""
    return _least_passing(n, is_prime_power, "next_prime_power")


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are tuples of coefficients in
# 0..p-1, constant term first, with no trailing zeros (() is the zero poly).


def _pstrip(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _pmul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pstrip(tuple(out))


def _pmod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod must be monic
    r = list(a)
    while r and r[-1] == 0:
        r.pop()
    while len(r) >= len(mod):
        lead = r[-1]
        shift = len(r) - len(mod)
        for i, c in enumerate(mod):
            r[shift + i] = (r[shift + i] - lead * c) % p
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _monic_polys(degree: int, p: int):
    """Yield monic polynomials of the given degree in constant-first lex order."""
    for tail in itertools.product(range(p), repeat=degree):
        yield tail + (1,)


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    deg = len(f) - 1
    for t in range(1, deg // 2 + 1):
        for g in _monic_polys(t, p):
            if not _pmod(f, g, p):
                return False
    return True


# ---------------------------------------------------------------------------


class FieldSpec:
    """A concrete GF(p^m) with a deterministic modulus and lookup tables.

    The modulus is the lexicographically smallest (constant-first coefficient
    order) monic irreducible polynomial of degree m over GF(p); for m = 1 it
    is x itself, stored as (0, 1).  All arithmetic goes through tables().
    """

    __slots__ = ("p", "m", "q", "modulus", "_add", "_mul", "_neg", "_inv")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._add = None
        self._mul = None
        self._neg = None
        self._inv = None

    def _primitive_powers(self) -> list[int]:
        """g^0, ..., g^(q-2) for the smallest primitive element g in code order."""
        p, q = self.p, self.q

        def digits(code: int) -> tuple[int, ...]:
            return tuple(code // p**i % p for i in range(self.m))

        # g is primitive when its powers first return to 1 at g^(q-1); such a
        # g exists exactly when the modulus is irreducible.
        for g in range(1, q):
            gpoly = digits(g)
            powers = [1]
            for _ in range(q - 1):
                poly = _pmod(_pmul(digits(powers[-1]), gpoly, p), self.modulus, p)
                x = sum(c * p**i for i, c in enumerate(poly))
                if x == 1:
                    if len(powers) == q - 1:
                        return powers
                    break
                powers.append(x)
        raise ParameterError(f"modulus {self.modulus} is reducible over GF({p})")

    def tables(self) -> tuple[list[list[int]], list[list[int]], list[int], list[int]]:
        """(add, mul, neg, inv) lookup tables; built once, inv[0] is None.

        add is built one base-p digit at a time, mul and inv from the
        log/antilog tables of a primitive element, and neg[a] is the position
        of 0 in row a of add.
        """
        if self._add is None:
            p, q = self.p, self.q
            add = [[0]]
            for j in range(self.m):
                # extend GF(p)^j to GF(p)^(j+1): code = low + size * top digit
                size = p**j
                add = [
                    [x + size * ((ah + bh) % p) for bh in range(p) for x in add[al]]
                    for ah in range(p)
                    for al in range(size)
                ]
            antilog = self._primitive_powers()
            log = [0] * q
            for i, a in enumerate(antilog):
                log[a] = i
            exp = antilog * 2
            nonzero_logs = log[1:]
            self._add = add
            self._mul = [[0] * q] + [
                [0] + [exp[log[a] + lb] for lb in nonzero_logs] for a in range(1, q)
            ]
            self._neg = [row.index(0) for row in add]
            self._inv = [None] + [exp[q - 1 - log[a]] for a in range(1, q)]
        return self._add, self._mul, self._neg, self._inv

    # -- identity ---------------------------------------------------------------

    def _key(self):
        return (self.p, self.m, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FieldSpec(q={self.q}, p={self.p}, m={self.m}, modulus={self.modulus})"


_SPEC_CACHE: dict[int, FieldSpec] = {}


def field_make(q: int) -> FieldSpec:
    """Deterministically build GF(q); same q always yields the same spec."""
    spec = _SPEC_CACHE.get(q)
    if spec is not None:
        return spec
    pp = factor_prime_power(q)
    # degree 1: x = (0, 1) comes first and has no divisor to try
    modulus = next(f for f in _monic_polys(pp.m, pp.p) if _is_irreducible(f, pp.p))
    spec = FieldSpec(pp.p, pp.m, modulus)
    _SPEC_CACHE[q] = spec
    return spec
