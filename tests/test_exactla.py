"""Exact rational linear algebra kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic.exactla import (
    RankTracker,
    identity_matrix,
    integer_matrix,
    is_unimodular,
    is_unimodular_ratio,
    mat_det,
    mat_inv,
    mat_mul,
    mat_solve,
    mat_vec,
    solve_scaled,
    transpose,
)
from field_reference import FractionRankTracker, fraction_det, gauss_jordan_solve

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
    x = [row[0] for row in mat_solve(a, [[F(1)], [F(0)]])]
    assert mat_vec(a, x) == [F(1), F(0)]
    inv = mat_inv(a)
    assert mat_mul(a, inv) == identity_matrix(2)
    assert mat_mul(inv, a) == identity_matrix(2)


def test_solve_singular_raises():
    a = to_fractions([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="singular"):
        mat_solve(a, identity_matrix(2))


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


# -- the integer core against the Fraction references ------------------------

big_fractions = st.builds(
    Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 6))


def as_input(rows, ints):
    """The rows with integral entries given as ints when `ints` is set."""
    if not ints:
        return rows
    return [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]


@st.composite
def rational_matrices(draw, min_size=1, max_size=8):
    """n x n matrices of rank 0..n: `rank` rows of big fractions, mixed
    by small integer combinations into n rows and shuffled."""
    n = draw(st.integers(min_size, max_size))
    r = draw(st.integers(0, n) | st.just(n))
    base = draw(st.lists(st.lists(big_fractions, min_size=n, max_size=n),
                         min_size=r, max_size=r))
    coeffs = draw(st.lists(st.lists(st.integers(-3, 3), min_size=r, max_size=r),
                           min_size=n, max_size=n))
    rows = [[sum((c * b[j] for c, b in zip(cs, base)), Fraction(0)) for j in range(n)]
            for cs in coeffs]
    rows = base + rows[r:] if draw(st.booleans()) else rows
    return as_input(draw(st.permutations(rows)), draw(st.booleans()))


@st.composite
def near_unimodular(draw, size=None):
    """Products of elementary integer row operations, sometimes spoiled by
    a doubled row or a halved entry."""
    n = size if size is not None else draw(st.integers(1, 8))
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            k = draw(st.integers(-5, 5))
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    spoil = draw(st.sampled_from(["none", "double", "halve"]))
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if spoil == "double":
        m[i] = [2 * x for x in m[i]]
    elif spoil == "halve":
        m[i][j] /= 2
    return as_input(m, draw(st.booleans()))


@settings(max_examples=80, deadline=None)
@given(rational_matrices())
def test_det_matches_the_fraction_reference(a):
    d = mat_det(a)
    assert type(d) is Fraction
    assert d == fraction_det(a)


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_solve_and_inverse_match_the_fraction_reference(a, data):
    n = len(a)
    k = data.draw(st.integers(1, 3))
    b = data.draw(st.lists(st.lists(big_fractions, min_size=k, max_size=k),
                           min_size=n, max_size=n))
    if fraction_det(a) == 0:
        for solve in (lambda: mat_solve(a, b), lambda: mat_inv(a)):
            with pytest.raises(ValueError) as info:
                solve()
            assert str(info.value) == "singular matrix"
        with pytest.raises(ValueError, match="^singular matrix$"):
            gauss_jordan_solve(a, b)
        return
    x = mat_solve(a, b)
    assert x == gauss_jordan_solve(a, b)
    assert all(type(v) is Fraction for row in x for v in row)
    assert mat_inv(a) == gauss_jordan_solve(a, identity_matrix(n))


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_scaled_solve_matches_the_fraction_reference(a, data):
    # A X = B for the integer numerators of A: X = Y / d in lowest terms
    n = len(a)
    num, _ = integer_matrix(a)
    k = data.draw(st.integers(1, 3))
    b = data.draw(st.lists(st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=k, max_size=k),
                           min_size=n, max_size=n))
    if fraction_det(a) == 0:
        with pytest.raises(ValueError, match="^singular matrix$"):
            solve_scaled(num, b)
        return
    y, d = solve_scaled(num, b)
    assert all(type(v) is int for row in y for v in row)
    assert d > 0 and math.gcd(d, *(v for row in y for v in row)) == 1
    assert [[F(v, d) for v in row] for row in y] == gauss_jordan_solve(num, b)


@settings(max_examples=80, deadline=None)
@given(rational_matrices(max_size=5), st.data())
def test_unimodular_ratio_matches_the_inverse_product(b, data):
    # A = U B with U nearly unimodular, or an unrelated A
    n = len(b)
    if data.draw(st.booleans()):
        a = mat_mul(data.draw(near_unimodular(size=n)), b)
    else:
        a = data.draw(rational_matrices(min_size=n, max_size=n))
    if fraction_det(b) == 0:
        with pytest.raises(ValueError, match="^singular matrix$"):
            is_unimodular_ratio(integer_matrix(a), integer_matrix(b))
        return
    expected = is_unimodular(mat_mul(a, mat_inv(b)))
    assert is_unimodular_ratio(integer_matrix(a), integer_matrix(b)) == expected


@settings(max_examples=80, deadline=None)
@given(near_unimodular() | rational_matrices(max_size=4))
def test_is_unimodular_matches_the_fraction_reference(a):
    expected = all(F(x).denominator == 1 for row in a for x in row) and abs(fraction_det(a)) == 1
    assert is_unimodular(a) == expected


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_rank_decisions_match_the_fraction_reference(a, data):
    # the rows of a rank-deficient matrix, with repeats and zero rows
    extra = data.draw(st.lists(st.sampled_from(a), max_size=3))
    zero = [[0] * len(a)] if data.draw(st.booleans()) else []
    vectors = a + extra + zero
    tracker, reference = RankTracker(len(a)), FractionRankTracker(len(a))
    assert ([tracker.try_add(v) for v in vectors]
            == [reference.try_add(v) for v in vectors])
    assert tracker.rank == len(reference.rows)
    assert tracker.pivots == reference.pivots
    assert all(type(x) is int for row in tracker.rows for x in row)


def test_rank_tracker_rows_are_primitive_integers():
    tr = RankTracker(3)
    assert tr.try_add([F(1, 2), F(1, 3), F(0)])
    assert tr.try_add([4, 0, 6])
    assert not tr.try_add([F(5, 2), F(1, 3), F(3)])
    assert tr.rows == [[3, 2, 0], [0, -4, 9]]
    assert all(type(x) is int for row in tr.rows for x in row)


def test_rank_tracker_rejects_vectors_of_the_wrong_length():
    tr = RankTracker(3)
    for vec in ([1, 2], [0, 0, 0, 5], []):
        with pytest.raises(ValueError, match="length"):
            tr.try_add(vec)
    assert tr.rank == 0
    assert tr.try_add([1, 2, 0])
    assert not tr.try_add([2, 4, 0])
