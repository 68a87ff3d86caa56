"""Exact rational linear algebra kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic.exactla import (
    RankTracker,
    identity_matrix,
    is_integral_mat,
    is_integral_vec,
    mat_det,
    mat_inv,
    mat_mul,
    mat_solve,
    mat_vec,
    solve_vec,
    transpose,
)

F = Fraction


def to_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rank(rows):
    tracker = RankTracker(len(rows[0]))
    for row in rows:
        tracker.try_add(row)
    return tracker.rank


small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4)


def square(n):
    return st.lists(
        st.lists(small_fractions, min_size=n, max_size=n),
        min_size=n, max_size=n)


def test_det_known_values():
    assert mat_det(to_fractions([[2, 1], [1, 3]])) == 5
    assert mat_det(to_fractions([[1, 2], [2, 4]])) == 0
    assert mat_det(to_fractions([[F(1, 2), 0], [0, F(1, 4)]])) == F(1, 8)
    assert mat_det(identity_matrix(4)) == 1


def test_solve_and_inverse():
    a = to_fractions([[2, 1], [1, 3]])
    x = solve_vec(a, [F(1), F(0)])
    assert mat_vec(a, x) == [F(1), F(0)]
    inv = mat_inv(a)
    assert mat_mul(a, inv) == identity_matrix(2)
    assert mat_mul(inv, a) == identity_matrix(2)


def test_solve_singular_raises():
    a = to_fractions([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="singular"):
        mat_solve(a, identity_matrix(2))


def test_integrality_predicates():
    assert is_integral_vec([F(2), F(-3), F(0)])
    assert not is_integral_vec([F(1, 2)])
    assert is_integral_mat([[F(1), F(0)], [F(7), F(-2)]])
    assert not is_integral_mat([[F(1), F(1, 3)], [F(0), F(1)]])


def test_rank_tracker_milestones():
    tr = RankTracker(3)
    assert tr.try_add([F(1), F(0), F(0)])
    assert not tr.try_add([F(2), F(0), F(0)])
    assert tr.try_add([F(1), F(1), F(0)])
    assert not tr.try_add([F(3), F(5), F(0)])
    assert tr.try_add([F(0), F(0), F(1)])
    assert tr.rank == 3
    assert not tr.try_add([F(1), F(2), F(3)])


def test_rank_tracker_rank_of_rows():
    assert rank(to_fractions([[1, 2], [2, 4]])) == 1
    assert rank(identity_matrix(3)) == 3
    assert rank([[F(0), F(0)], [F(0), F(0)]]) == 0


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_det_matches_rank_deficiency(rows):
    a = to_fractions(rows)
    d = mat_det(a)
    if rank(a) == 3:
        assert d != 0
        assert mat_mul(a, mat_inv(a)) == identity_matrix(3)
    else:
        assert d == 0


@settings(max_examples=60, deadline=None)
@given(square(3), square(3))
def test_det_is_multiplicative(rows_a, rows_b):
    a, b = to_fractions(rows_a), to_fractions(rows_b)
    assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


@settings(max_examples=40, deadline=None)
@given(square(3))
def test_transpose_involution_and_det(rows):
    a = to_fractions(rows)
    assert transpose(transpose(a)) == a
    assert mat_det(transpose(a)) == mat_det(a)
