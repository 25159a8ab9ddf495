"""MDS code families and exact MDS/weight-spectrum verification.

Reed-Solomon codes evaluate polynomials of degree < k at the first n field
elements in canonical code order (so the point set always starts 0, 1, ...).
The extended variant appends the coefficient-of-x^(k-1) coordinate, giving
length q+1.
"""

from __future__ import annotations

from .errors import BudgetExceeded, ParameterError
from .gf import FieldSpec, field_make
from .linear import (
    DEFAULT_DISTANCE_BUDGET,
    LinearCode,
    check_columns_independent,
    dual,
    min_distance,
    nonzero_weight_set,
)


def _power_rows(spec: FieldSpec, points: list[int], k: int) -> list[list[int]]:
    """Rows a^0, ..., a^(k-1) over the points, by repeated lookups (0^0 = 1)."""
    mul = spec.tables()[1]
    rows = [[1] * len(points)]
    for _ in range(k - 1):
        rows.append([mul[x][a] for x, a in zip(rows[-1], points)])
    return rows


def reed_solomon(q: int, n: int, k: int) -> LinearCode:
    """[n, k, n-k+1]_q Reed-Solomon code on the first n canonical points."""
    if not 0 < k < n:
        raise ParameterError(f"need 0 < k < n, got k={k}, n={n}")
    if n > q:
        raise ParameterError(f"need n <= q, got n={n}, q={q}")
    spec = field_make(q)
    return LinearCode(spec, _power_rows(spec, list(range(n)), k))


def extended_rs(q: int, k: int) -> LinearCode:
    """[q+1, k, q-k+2]_q extended Reed-Solomon code.

    All q points are used and one extra coordinate picks out the x^(k-1)
    coefficient of the message polynomial.
    """
    if not 0 < k <= q:
        raise ParameterError(f"need 0 < k <= q, got k={k}, q={q}")
    spec = field_make(q)
    g = _power_rows(spec, list(range(q)), k)
    for i, row in enumerate(g):
        row.append(1 if i == k - 1 else 0)
    return LinearCode(spec, g)


def is_mds(code: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> bool:
    """Exact check d == n - k + 1 by enumeration."""
    return min_distance(code, budget) == code.n - code.k + 1


def verify_dual_mds(code: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> bool:
    """Exact check that the dual code is MDS (dual distance == k + 1).

    Enumerates the dual when q^(n-k) fits the budget; otherwise decides via
    column independence of the dual's parity check (the primal generator):
    dual distance >= k+1 iff every k columns are independent, and Singleton
    caps it at k+1, so the criterion is exact as well.
    """
    want = code.k + 1
    try:
        return min_distance(dual(code), budget) == want
    except BudgetExceeded:
        return check_columns_independent(code.generator, code.k)


def weight_spectrum_check(code: LinearCode, budget: int = DEFAULT_DISTANCE_BUDGET) -> set[int]:
    """Exact set of nonzero codeword weights."""
    return nonzero_weight_set(code, budget)
