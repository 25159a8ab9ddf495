"""The file checker: the record and permutation-code file formats, and the
exact minimum distance of a set of permutations.

This is what ``permcodes verify`` runs, and all it runs, so it imports
nothing of the package but ``errors``.  ``linear`` and ``perms`` take these
names from here: the distance check that certifies a construction is the
one that re-checks its file.
"""

from __future__ import annotations

import itertools
import math
import operator
from pathlib import Path

from .errors import BudgetExceeded, ParameterError, ParseError

Perm = tuple[int, ...]

DEFAULT_VERIFY_BUDGET = 10**8


# ---------------------------------------------------------------------------
# Record files: '#' comment lines, a header line, one row per line.


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


# ---------------------------------------------------------------------------
# The exact distance check


def is_permutation(p) -> bool:
    return isinstance(p, tuple) and sorted(p) == list(range(1, len(p) + 1))


def _pack_rows(rows, n: int) -> tuple[list[int], list[int]]:
    """The rows as ints, entry i in bits [b*i, b*i + b) with b = n.bit_length(),
    and the mask of each position's field.

    A projection onto a set of positions is then ``row & mask`` with the
    positions' fields ORed into one mask.  Entries must lie in 1..n, so that
    each fits its field and two rows share a projection exactly when they
    agree on those positions.
    """
    if not set(itertools.chain.from_iterable(rows)) <= set(range(1, n + 1)):
        raise ParameterError(f"entries must lie in 1..{n}")
    b = n.bit_length()
    shifts = range(0, b * n, b)
    fields = [((1 << b) - 1) << s for s in shifts]
    return [sum(map(operator.lshift, p, shifts)) for p in rows], fields


def _subset_masks(fields: list[int], size: int):
    """The projection mask of every size-subset of the positions."""
    return (
        sum(map(fields.__getitem__, s))
        for s in itertools.combinations(range(len(fields)), size)
    )


def code_min_distance(
    rows, expected: int = 2, budget: int = DEFAULT_VERIFY_BUDGET
) -> int | float:
    """Exact minimum pairwise distance of the rows; +inf for fewer than two.

    Two distinct permutations of {1..n} are at distance <= t exactly when they
    agree on some n - t positions (the pigeonhole behind
    singleton_like_upper).  So after a duplicate check on whole rows, the
    least t >= 2 at which two members share their entries on some
    (n - t)-subset of positions is the minimum distance d.

    ``expected`` only picks where the search starts; the result is exact
    for any value.  Level t0 = expected - 1, clamped to 2..n-1, is tested
    first: with no collision there d > t0 and the search goes up from
    t0 + 1, else it goes up from 2 to t0 - 1.  For M rows at distance
    d = expected that hashes M * (1 + C(n, d - 1)) keys plus the subsets
    tried at d until the first collision, one subset's set at a time; past
    ``budget`` keys (the duplicate check included) it raises
    BudgetExceeded.  Entries outside 1..n raise ParameterError.
    """
    members = list(rows)
    m = len(members)
    if m < 2:
        return math.inf
    n = len(members[0])
    if any(len(p) != n for p in members):
        raise ParameterError("permutations act on different sets")
    packed, fields = _pack_rows(members, n)
    hashed = 0

    def collide(mask: int) -> bool:
        nonlocal hashed
        hashed += m
        if hashed > budget:
            raise BudgetExceeded(f"distance check needs more than {budget} projection keys")
        return len(set(map(mask.__and__, packed))) < m

    def first_collision(levels) -> int | None:
        for t in levels:
            if any(map(collide, _subset_masks(fields, n - t))):
                return t
        return None

    if collide(sum(fields)):
        return 0
    # Distinct permutations never differ in exactly one place: t starts at 2.
    t0 = min(max(expected - 1, 2), n - 1)
    if first_collision([t0]) is None:
        found = first_collision(range(t0 + 1, n))
        return n if found is None else found
    found = first_collision(range(2, t0))
    return t0 if found is None else found


# ---------------------------------------------------------------------------
# Permutation code files.  Format: '#' comments, header "n size d" (d may be
# "inf"), then one permutation per line in one-line notation.


def read_permutation_code(path) -> tuple[int, int, int | float, list[Perm]]:
    """Parse a permutation code file; returns (n, declared size, declared d,
    rows as written).  Duplicate rows are preserved for the verifier to catch."""
    header: tuple[int, int, int | float] | None = None
    rows: list[Perm] = []
    for lineno, toks in _file_records(path):
        if header is None:
            if len(toks) != 3:
                raise ParseError(f"{path}:{lineno}: header must be 'n size d'")
            try:
                n = int(toks[0])
                size = int(toks[1])
                dval: int | float = math.inf if toks[2] == "inf" else int(toks[2])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad header token") from None
            if n < 1:
                raise ParseError(f"{path}:{lineno}: header n must be at least 1")
            header = (n, size, dval)
            continue
        try:
            p = tuple(map(int, toks))
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
