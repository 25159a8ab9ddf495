"""Exact bound formulas, cross-checked against direct enumeration.

Derangement counts and ball sizes get independent recounts here; the larger
tabulated values are additionally pinned in the acceptance suite.
"""

import itertools
import math
from fractions import Fraction

import pytest

from permcodes.bounds import (
    amds_lower,
    amds_vs_old_threshold,
    bound_report,
    derangement_count,
    envelope_new_old,
    general_firstbound,
    gv_lower,
    hamming_ball_size,
    mds_lower,
    mds_plus1_lower,
    old_prime_lower,
    ratio_amds_old,
    ratio_new_old,
    singleton_like_upper,
    sphere_packing_upper,
)
from permcodes.errors import ParameterError, PreconditionViolated

from oracles import oracle_perm_distance


def brute_derangements(r):
    items = list(range(r))
    return sum(
        1
        for p in itertools.permutations(items)
        if all(p[i] != i for i in items)
    )


def test_derangement_recurrence_matches_brute_force():
    for r in range(8):
        assert derangement_count(r) == brute_derangements(r)


def test_derangement_frozen_prefix():
    assert [derangement_count(r) for r in range(8)] == [1, 0, 1, 2, 9, 44, 265, 1854]


def test_derangement_rounding_form():
    # D_r is the nearest integer to r!/e; check against exact rational
    # sandwich of 1/e from the alternating series partial sums
    for r in range(2, 21):
        # S_r = r! * sum_{i<=r} (-1)^i / i!  equals D_r exactly
        s = sum(Fraction((-1) ** i * math.factorial(r), math.factorial(i)) for i in range(r + 1))
        assert derangement_count(r) == s


def test_derangement_negative():
    with pytest.raises(ParameterError):
        derangement_count(-1)


def test_hamming_ball_matches_enumeration():
    # independent recount inside S_5 around the identity
    n = 5
    ident = tuple(range(1, n + 1))
    perms = list(itertools.permutations(range(1, n + 1)))
    for t in range(n + 1):
        direct = sum(1 for p in perms if oracle_perm_distance(p, ident) <= t)
        assert hamming_ball_size(n, t) == direct


def test_ball_has_no_radius_one_shell():
    # two permutations cannot differ in exactly one position
    assert hamming_ball_size(7, 1) == 1


def test_gv_and_sphere_frozen():
    value, rounded = gv_lower(5, 5)
    assert value == Fraction(120, 76) and rounded == 2
    value, rounded = sphere_packing_upper(5, 5)
    assert value == Fraction(120, 11) and rounded == 10
    value, rounded = singleton_like_upper(5, 5)
    assert value == 5 and rounded == 5


def test_gv_below_sphere_on_grid():
    for n in range(4, 9):
        for d in range(1, n + 1):
            assert gv_lower(n, d)[0] <= sphere_packing_upper(n, d)[0]


def test_rounding_directions():
    # lower bounds round up (a code of that size exists), upper bounds round down
    assert gv_lower(6, 4)[1] == math.ceil(gv_lower(6, 4)[0])
    assert sphere_packing_upper(6, 4)[1] == math.floor(sphere_packing_upper(6, 4)[0])
    assert old_prime_lower(9, 6)[1] == math.ceil(old_prime_lower(9, 6)[0])
    assert mds_lower(9, 6)[1] == math.ceil(mds_lower(9, 6)[0])
    assert mds_plus1_lower(10, 6)[1] == math.ceil(mds_plus1_lower(10, 6)[0])


def test_prime_bound_frozen_column():
    # n = 9..21 at d = 6
    want = [25, 248, 2727, 16772, 218026, 1043789, 15656834, 250509332,
            4258658638, 49127720826, 933426695689, 8693872621156,
            182571325044256]
    got = [old_prime_lower(n, 6)[1] for n in range(9, 22)]
    assert got == want


def test_mds_bound_frozen_column():
    want = [56, 248, 2727, 16772, 218026, 1330236, 19953528, 319256438,
            4258658638, 49127720826, 933426695689, 8693872621156,
            182571325044256]
    got = [mds_lower(n, 6)[1] for n in range(9, 22)]
    assert got == want


def test_mds_plus1_frozen_column():
    want = {9: 45, 10: 277, 12: 16359, 14: 1526178, 17: 2713679719,
            18: 38327927742, 20: 9334266956886}
    for n in range(9, 22):
        if n in want:
            assert mds_plus1_lower(n, 6)[1] == want[n]
        else:
            with pytest.raises(ParameterError):
                mds_plus1_lower(n, 6)


def test_mds_dominates_prime_bound():
    # the next prime power never exceeds the next prime
    for n in range(5, 30):
        for d in range(3, n):
            assert mds_lower(n, d)[0] >= old_prime_lower(n, d)[0]


def test_parameter_windows():
    with pytest.raises(ParameterError):
        gv_lower(5, 0)
    with pytest.raises(ParameterError):
        gv_lower(5, 6)
    with pytest.raises(ParameterError):
        old_prime_lower(6, 2)  # needs d > 2
    with pytest.raises(ParameterError):
        mds_lower(6, 6)  # needs d < n
    with pytest.raises(ParameterError):
        mds_plus1_lower(11, 6)  # 10 is not a prime power
    with pytest.raises(ParameterError):
        mds_plus1_lower(12, 3)  # needs d > 3
    with pytest.raises(ParameterError):
        mds_plus1_lower(12, 11)  # needs d < n - 1


def test_amds_lower_frozen():
    got = amds_lower(8, 6, 4, a2_value=2)
    assert got.value == Fraction(math.factorial(8) * 2, 2**4 * 4**5)
    assert got.value == Fraction(315, 64)
    assert got.rounded == 5
    assert got.flags == {"d_at_least_2": True, "length_within_amds_range": True}


def test_amds_lower_preconditions():
    with pytest.raises(PreconditionViolated):
        amds_lower(8, 6, 6, a2_value=2)  # q not a prime power
    with pytest.raises(PreconditionViolated):
        amds_lower(10, 6, 4, a2_value=2)  # n > 2q
    flagged = amds_lower(6, 2, 4, a2_value=4)
    assert flagged.flags["length_within_amds_range"] is False


def test_general_firstbound_fixture_floors():
    # fixture A: trivial subgroup, gamma of size 1, ones row active
    _, floor_a = general_firstbound(6, 7, 4, 1, ones_row=True)
    assert floor_a == 103  # ceil(720/7)
    # fixture B: subgroup of order 2
    _, floor_b = general_firstbound(6, 5, 3, 1, ones_row=True)
    assert floor_b == 15  # ceil(720/50)
    # fixture C: subgroup of order 4, gamma of size 2
    _, floor_c = general_firstbound(6, 4, 2, 2, ones_row=True)
    assert floor_c == 6  # ceil(1440/256)
    # without the ones row the reachable syndrome set grows by a factor q
    _, floor_a_plain = general_firstbound(6, 7, 4, 1, ones_row=False)
    assert floor_a_plain == 15  # ceil(720/49)


def test_envelope_and_ratio_frozen():
    ratio, envelope = ratio_new_old(10, 6)
    assert ratio == Fraction(14641, 13122)
    assert envelope == Fraction(5000, 6561)
    assert envelope == envelope_new_old(10, 6)
    assert ratio >= envelope


def test_ratio_amds_frozen():
    n, d, ratio = ratio_amds_old(4, Fraction(2), Fraction(3, 4), a2_value=2)
    assert (n, d) == (8, 6)
    assert ratio == Fraction(14641, 8192)


@pytest.mark.parametrize(
    "q, alpha, b, message",
    [
        (9, Fraction(2), Fraction(3, 4), "n = 18 and d = 27/2 must be integers"),
        (5, Fraction(3, 2), Fraction(1, 2), "n = 15/2 and d = 15/4 must be integers"),
    ],
    ids=["d_off", "n_off"],
)
def test_ratio_amds_rejects_points_off_the_grid(q, alpha, b, message):
    with pytest.raises(ParameterError) as exc:
        ratio_amds_old(q, alpha, b, a2_value=2)
    assert str(exc.value) == message


def test_threshold_values():
    assert amds_vs_old_threshold(2) == Fraction(1, 2)
    assert amds_vs_old_threshold(4) == Fraction(3, 8)
    assert amds_vs_old_threshold(8) == Fraction(7, 24)
    for bad in (3, 6, Fraction(5, 2)):
        with pytest.raises(ParameterError):
            amds_vs_old_threshold(bad)


def test_bound_report_cells():
    cells = bound_report(11, 6)
    assert cells["old"].rounded == 2727
    assert cells["mds"].rounded == 2727
    assert not cells["mds+1"].applicable
    assert cells["mds+1"].reason
    assert set(cells) == {"gv", "sphere", "singleton", "old", "mds", "mds+1"}


def test_bound_report_sane_ordering():
    # every applicable lower bound stays below every applicable upper bound
    for n in (6, 9, 12):
        for d in range(3, n):
            cells = bound_report(n, d)
            uppers = [cells[c].value for c in ("sphere", "singleton") if cells[c].applicable]
            lowers = [cells[c].value for c in ("gv", "old", "mds", "mds+1") if cells[c].applicable]
            for lo in lowers:
                for up in uppers:
                    assert lo <= up
