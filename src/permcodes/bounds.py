"""Size bounds for permutation codes, all in exact rational arithmetic.

Every bound value is a fractions.Fraction; lower bounds round up and upper
bounds round down, and both the exact value and the rounded integer are
returned so callers never re-derive the rounding direction.  No floating
point is used anywhere in this module.

The almost-MDS bound takes A_2(r, d) as an argument: A_2, its clique search
and the integer terms of the construction's floor live in combinat, which
general_firstbound imports where it runs, so tabulating the bounds loads no
clique search.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError
from .gf import is_prime_power, next_prime, next_prime_power

_DERANGEMENTS = [1, 0]


def derangement_count(r: int) -> int:
    """Number of fixed-point-free permutations of r points, by the integer
    recurrence D_r = (r-1) (D_{r-1} + D_{r-2})."""
    if r < 0:
        raise ParameterError("need r >= 0")
    while len(_DERANGEMENTS) <= r:
        m = len(_DERANGEMENTS)
        _DERANGEMENTS.append((m - 1) * (_DERANGEMENTS[m - 1] + _DERANGEMENTS[m - 2]))
    return _DERANGEMENTS[r]


def hamming_ball_size(n: int, t: int) -> int:
    """Number of permutations within distance t of a fixed one."""
    if not 0 <= t <= n:
        raise ParameterError(f"need 0 <= t <= n, got t={t}, n={n}")
    return sum(math.comb(n, i) * derangement_count(i) for i in range(t + 1))


def _check_nd(n: int, d: int, d_min: int = 1, d_max_excl: int | None = None) -> None:
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    hi = n if d_max_excl is None else d_max_excl - 1
    if not d_min <= d <= hi:
        raise ParameterError(f"d={d} outside [{d_min}, {hi}] for n={n}")


def gv_lower(n: int, d: int) -> tuple[Fraction, int]:
    """Covering bound: M(n,d) >= n! / (ball of radius d-1)."""
    _check_nd(n, d)
    value = Fraction(math.factorial(n), hamming_ball_size(n, d - 1))
    return value, math.ceil(value)


def sphere_packing_upper(n: int, d: int) -> tuple[Fraction, int]:
    """Packing bound: M(n,d) <= n! / (ball of radius floor((d-1)/2))."""
    _check_nd(n, d)
    value = Fraction(math.factorial(n), hamming_ball_size(n, (d - 1) // 2))
    return value, math.floor(value)


def singleton_like_upper(n: int, d: int) -> tuple[Fraction, int]:
    """Projection bound: M(n,d) <= n!/(d-1)!."""
    _check_nd(n, d)
    value = Fraction(math.factorial(n), math.factorial(d - 1))
    return value, math.floor(value)


def old_prime_lower(n: int, d: int) -> tuple[Fraction, int]:
    """M(n,d) >= n! / p^(d-2) with p the smallest prime >= n."""
    _check_nd(n, d, d_min=3)
    value = Fraction(math.factorial(n), next_prime(n) ** (d - 2))
    return value, math.ceil(value)


def mds_lower(n: int, d: int) -> tuple[Fraction, int]:
    """M(n,d) >= n! / q^(d-2) with q the smallest prime power >= n."""
    _check_nd(n, d, d_min=3, d_max_excl=n)
    value = Fraction(math.factorial(n), next_prime_power(n) ** (d - 2))
    return value, math.ceil(value)


def mds_plus1_lower(n: int, d: int) -> tuple[Fraction, int]:
    """M(n,d) >= n! / (2 (n-1)^(d-2)) when n-1 is a prime power, 3 < d < n-1."""
    if n < 3 or not is_prime_power(n - 1):
        raise ParameterError(f"n-1 = {n - 1} is not a prime power")
    if not 3 < d < n - 1:
        raise ParameterError(f"d={d} outside (3, {n - 1}) for n={n}")
    value = Fraction(math.factorial(n), 2 * (n - 1) ** (d - 2))
    return value, math.ceil(value)


class AmdsBound(NamedTuple):
    value: Fraction
    rounded: int
    flags: dict[str, bool]


def _amds_range(n: int, q: int) -> None:
    """The AMDS bound's range: q a prime power and q < n <= 2q."""
    if not is_prime_power(q):
        raise ParameterError(f"q={q} is not a prime power")
    if not q < n <= 2 * q:
        raise ParameterError(f"need q < n <= 2q, got n={n}, q={q}")


def amds_lower(n: int, d: int, q: int, a2_value: int) -> AmdsBound:
    """M(n,d) >= n! A / (2^(n-q) q^(d-1)) given A = A_2(n-q, floor(d/2)).

    Hard preconditions: q a prime power with q < n <= 2q, d >= 1, A >= 1.
    The remaining hypotheses of the sharper statement (d >= 2 and
    n <= q + d - 2) are reported as flags rather than enforced.
    """
    _amds_range(n, q)
    if d < 1 or a2_value < 1:
        raise ParameterError("need d >= 1 and a2_value >= 1")
    value = Fraction(
        math.factorial(n) * a2_value, 2 ** (n - q) * q ** (d - 1)
    )
    flags = {
        "d_at_least_2": d >= 2,
        "length_within_amds_range": n <= q + d - 2,
    }
    return AmdsBound(value, math.ceil(value), flags)


def general_firstbound(
    n: int, q: int, k: int, gamma_size: int, ones_row: bool
) -> tuple[Fraction, int]:
    """Pigeonhole floor for the syndrome construction, exact and rounded up:
    combinat._floor_terms, which the construction rounds by integer division."""
    from .combinat import _floor_terms

    value = Fraction(*_floor_terms(n, q, k, gamma_size, ones_row))
    return value, math.ceil(value)


# ---------------------------------------------------------------------------
# Ratio studies


def envelope_new_old(n: int, d: int) -> Fraction:
    """(1/2)(1 + 1/(n-1))^(d-2): the floor of new/old when n itself is prime."""
    if n < 3:
        raise ParameterError("need n >= 3")
    return Fraction(1, 2) * (1 + Fraction(1, n - 1)) ** (d - 2)


def ratio_new_old(n: int, d: int) -> tuple[Fraction, Fraction]:
    """(new lower bound) / (old lower bound) and its envelope, both exact.

    Applicable when both bounds are: n-1 a prime power and 3 < d < n-1.
    """
    new_val, _ = mds_plus1_lower(n, d)
    old_val, _ = old_prime_lower(n, d)
    ratio = new_val / old_val
    return ratio, envelope_new_old(n, d)


def amds_grid_point(q: int, alpha: Fraction, b: Fraction) -> tuple[int, int]:
    """(n, d) = (alpha q, b n) on the scaling family; both must be integers,
    and (n, q) must lie in the AMDS bound's range, so that a caller can drop
    a point before it computes A_2 for it."""
    n = Fraction(alpha) * q
    d = Fraction(b) * n
    if n.denominator != 1 or d.denominator != 1:
        raise ParameterError(f"n = {n} and d = {d} must be integers")
    _amds_range(int(n), q)
    return int(n), int(d)


def ratio_amds_old(
    q: int, alpha: Fraction, b: Fraction, a2_value: int
) -> tuple[int, int, Fraction]:
    """Ratio of the involution-lift bound to the old prime bound on the
    scaling family n = alpha q, d = b n.  Returns (n, d, ratio)."""
    n, d = amds_grid_point(q, alpha, b)
    amds = amds_lower(n, d, q, a2_value)
    old_val, _ = old_prime_lower(n, d)
    return n, d, amds.value / old_val


def amds_vs_old_threshold(alpha: Fraction) -> Fraction:
    """(alpha - 1) / (alpha log2 alpha) for alpha an integral power of two;
    the b value above which the scaling family's ratio diverges."""
    alpha = Fraction(alpha)
    if alpha.denominator != 1 or alpha < 2:
        raise ParameterError("alpha must be an integer >= 2")
    a = int(alpha)
    log2 = a.bit_length() - 1
    if 2**log2 != a:
        raise ParameterError("alpha must be an integral power of two")
    return Fraction(a - 1, a * log2)


# ---------------------------------------------------------------------------
# Assembled report


class BoundCell(NamedTuple):
    applicable: bool
    value: Fraction | None = None
    rounded: int | None = None
    reason: str | None = None


def _cell(fn, n: int, d: int) -> BoundCell:
    try:
        value, rounded = fn(n, d)
    except ParameterError as exc:
        return BoundCell(applicable=False, reason=str(exc))
    return BoundCell(applicable=True, value=value, rounded=rounded)


# table column -> the bound it tabulates, in table order
TABLE_COLUMNS = {
    "gv": gv_lower,
    "sphere": sphere_packing_upper,
    "singleton": singleton_like_upper,
    "old": old_prime_lower,
    "mds": mds_lower,
    "mds+1": mds_plus1_lower,
}


def bound_report(n: int, d: int) -> dict[str, BoundCell]:
    """All six tabulated bounds for one (n, d), keyed by table column;
    inapplicable cells are flagged with the reason."""
    return {column: _cell(fn, n, d) for column, fn in TABLE_COLUMNS.items()}
