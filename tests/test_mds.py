"""MDS families: construction, duality, weight spectra."""

import pytest

from permcodes.errors import ParameterError
from permcodes.gf import field_make
from permcodes.linear import (
    LinearCode,
    dual,
    min_distance,
    singleton_defect,
)
from permcodes.mds import extended_rs, reed_solomon

from oracles import (
    nonzero_weight_set,
    oracle_min_distance,
    oracle_weights,
    verify_dual_mds,
)


def test_rs_shape_and_distance():
    code = reed_solomon(7, 6, 4)
    assert (code.n, code.k) == (6, 4)
    assert min_distance(code) == 3  # n - k + 1
    assert singleton_defect(code) == 0


def test_rs_points_start_at_zero():
    code = reed_solomon(5, 3, 2)
    # first generator row is constant-one, second lists the points 0, 1, 2
    assert code.generator.rows[0] == (1, 1, 1)
    assert code.generator.rows[1] == (0, 1, 2)


@pytest.mark.parametrize("q,n,k", [(4, 4, 2), (5, 5, 2), (5, 4, 3), (7, 6, 2), (8, 5, 3), (9, 4, 2)])
def test_rs_is_mds_and_dual_mds(q, n, k):
    code = reed_solomon(q, n, k)
    assert min_distance(code) == n - k + 1
    assert oracle_min_distance(code) == n - k + 1
    assert verify_dual_mds(code)
    assert oracle_min_distance(dual(code)) == k + 1


@pytest.mark.parametrize("q,k,d", [(11, 8, 5), (13, 4, 11)])
def test_min_distance_of_large_extended_rs(q, k, d):
    # (11^8 - 1)/10 = 2.1e7 message classes: out of reach of a full scan
    assert min_distance(extended_rs(q, k), budget=q**k) == d


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_full_length_rs_distances_are_mds(q):
    for k in range(1, q):
        assert min_distance(reed_solomon(q, q, k), budget=q**k) == q - k + 1


def test_rs_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        reed_solomon(5, 6, 2)  # n > q
    with pytest.raises(ParameterError):
        reed_solomon(5, 4, 4)  # k == n
    with pytest.raises(ParameterError):
        reed_solomon(5, 4, 0)


def test_extended_rs_shape_and_distance():
    code = extended_rs(5, 3)
    assert (code.n, code.k) == (6, 3)
    assert min_distance(code) == 4  # q - k + 2
    assert singleton_defect(code) == 0
    assert verify_dual_mds(code)


def test_extended_rs_full_dimension():
    # k = q is allowed: [q+1, q, 2]
    code = extended_rs(4, 4)
    assert (code.n, code.k) == (5, 4)
    assert min_distance(code) == 2


def test_extended_rs_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        extended_rs(5, 0)
    with pytest.raises(ParameterError):
        extended_rs(5, 6)


def test_extended_rs_two_dim_spectrum_is_single_weight():
    # the [q+1, 2] member has no full-weight codeword at all: every nonzero
    # word has weight exactly q.  Oracle enumeration agrees.
    for q in (4, 5):
        code = extended_rs(q, 2)
        assert nonzero_weight_set(code) == {q}
        assert oracle_weights(code) == {q}


def test_dual_of_high_dim_extended_rs_matches_two_dim_shape():
    # dual of [q+1, q-1] is a [q+1, 2] MDS code, hence single-weight {q}
    for q in (4, 5, 7):
        code = extended_rs(q, q - 1)
        assert nonzero_weight_set(dual(code)) == {q}


def test_verify_dual_mds_fallback_agrees_with_enumeration():
    # small enough to enumerate: force the fallback with a tiny budget and
    # compare both answers
    code = reed_solomon(7, 6, 2)
    assert verify_dual_mds(code) == verify_dual_mds(code, budget=5) == True  # noqa: E712
    # non-MDS dual: a code with a repeated column cannot have MDS dual
    bad = LinearCode(field_make(5), [[1, 1, 0], [0, 0, 1]])
    assert verify_dual_mds(bad) == verify_dual_mds(bad, budget=1) == False  # noqa: E712


def test_weight_spectrum_check_matches_oracle():
    code = reed_solomon(8, 5, 3)
    assert nonzero_weight_set(code) == oracle_weights(code)
