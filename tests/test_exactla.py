"""Exact rational linear algebra kernel."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic import exactla
from adelic.exactla import (
    RankTracker,
    integer_matrix,
    is_unimodular,
    is_unimodular_ratio,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    solve_scaled,
    transpose,
)
from field_reference import FractionRankTracker, fraction_det, gauss_jordan_solve

F = Fraction


def fraction_unimodular(a) -> bool:
    """The reference verdict: a is integral with determinant +-1, in `Fraction`s."""
    return all(F(x).denominator == 1 for row in a for x in row) and abs(fraction_det(a)) == 1


def to_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def scaled_row(vec):
    """A rational vector times the lcm of its denominators: integers with the same span."""
    (row,), _ = integer_matrix([vec])
    return row


def rank(rows):
    tracker = RankTracker(len(rows[0]))
    for row in rows:
        tracker.try_add(scaled_row(row))
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
    assert mat_det([[int(i == j) for j in range(4)] for i in range(4)]) == 1


def test_solve_and_inverse():
    a = to_fractions([[2, 1], [1, 3]])
    y, d = solve_scaled([[2, 1], [1, 3]], [[1], [0]])
    assert mat_vec(a, [F(v, d) for v, in y]) == [F(1), F(0)]
    inv = mat_inv(a)
    assert mat_mul(a, inv) == [[1, 0], [0, 1]]
    assert mat_mul(inv, a) == [[1, 0], [0, 1]]


def test_solve_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        solve_scaled([[1, 2], [2, 4]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="singular"):
        mat_inv(to_fractions([[1, 2], [2, 4]]))


def test_rank_tracker_milestones():
    tr = RankTracker(3)
    assert tr.try_add([1, 0, 0])
    assert not tr.try_add([2, 0, 0])
    assert tr.try_add([1, 1, 0])
    assert not tr.try_add([3, 5, 0])
    assert tr.try_add([0, 0, 1])
    assert tr.rank == 3
    assert not tr.try_add([1, 2, 3])


def test_rank_tracker_rank_of_rows():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[int(i == j) for j in range(3)] for i in range(3)]) == 3
    assert rank([[0, 0], [0, 0]]) == 0


@settings(max_examples=60, deadline=None)
@given(square(3))
def test_det_matches_rank_deficiency(rows):
    a = to_fractions(rows)
    d = mat_det(a)
    if rank(a) == 3:
        assert d != 0
        assert mat_mul(a, mat_inv(a)) == [[int(i == j) for j in range(3)] for i in range(3)]
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
        with pytest.raises(ValueError) as info:
            mat_inv(a)
        assert str(info.value) == "singular matrix"
        with pytest.raises(ValueError, match="^singular matrix$"):
            gauss_jordan_solve(a, b)
        return
    inv = mat_inv(a)
    assert all(type(v) is Fraction for row in inv for v in row)
    assert inv == gauss_jordan_solve(a, [[int(i == j) for j in range(n)] for i in range(n)])
    assert mat_mul(inv, b) == gauss_jordan_solve(a, b)


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
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    expected = fraction_unimodular(mat_mul(a, gauss_jordan_solve(b, identity)))
    assert is_unimodular_ratio(integer_matrix(a), integer_matrix(b)) == expected


@settings(max_examples=80, deadline=None)
@given(near_unimodular() | rational_matrices(max_size=4), st.integers(1, 10 ** 6))
def test_is_unimodular_matches_the_fraction_reference(a, c):
    # a itself, and its integer numerators over the scale c * q
    expected = fraction_unimodular(a)
    assert is_unimodular(a) == expected
    num, q = integer_matrix(a)
    assert is_unimodular([[c * x for x in row] for row in num], c * q) == expected


@st.composite
def permuted_blocks(draw):
    """A square integer matrix, block diagonal up to a row and a column permutation.

    A block is near-unimodular, random (often singular), a square with a
    zero row, or a pair of r x (r+1) and (r+1) x r blocks, whose row and
    column counts differ.
    """
    small = st.integers(-2, 2)
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["unimodular"] * 3 + ["random", "zero row", "unequal"]))
        k = draw(st.integers(1, 3))
        if kind == "unimodular":
            blocks.append([[math.floor(x) for x in row] for row in draw(near_unimodular(size=k))])
        elif kind == "unequal":
            blocks.append(draw(st.lists(st.lists(small, min_size=k + 1, max_size=k + 1),
                                        min_size=k, max_size=k)))
            blocks.append(draw(st.lists(st.lists(small, min_size=k, max_size=k),
                                        min_size=k + 1, max_size=k + 1)))
        else:
            block = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=k, max_size=k))
            if kind == "zero row":
                block[draw(st.integers(0, k - 1))] = [0] * k
            blocks.append(block)
    n = sum(len(b) for b in blocks)
    a = [[0] * n for _ in range(n)]
    top = left = 0
    for b in blocks:
        for i, row in enumerate(b):
            a[top + i][left:left + len(row)] = row
        top, left = top + len(b), left + len(b[0])
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    return [[a[i][j] for j in cols] for i in rows]


@settings(max_examples=150, deadline=None)
@given(permuted_blocks(), st.integers(1, 1000), st.data())
def test_blockwise_unimodularity_matches_the_fraction_reference(a, scale, data):
    # a * scale over the scale, sometimes with one entry moved off the multiples of it
    a = [[scale * x for x in row] for row in a]
    if scale > 1 and data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, len(a) - 1)), data.draw(st.integers(0, len(a) - 1))
        a[i][j] += data.draw(st.integers(1, scale - 1))
    expected = fraction_unimodular([[F(x, scale) for x in row] for row in a])
    assert is_unimodular(a, scale) == expected


def test_unimodularity_reads_a_diagonal_and_eliminates_anything_else_once(monkeypatch):
    calls = []
    bareiss = exactla._bareiss
    monkeypatch.setattr(exactla, "_bareiss", lambda m, n: calls.append(n) or bareiss(m, n))
    # a diagonal matrix, units or not, is read off
    assert is_unimodular([[3, 0, 0], [0, -3, 0], [0, 0, 3]], 3)
    assert not is_unimodular([[1, 0], [0, 0]])
    assert not is_unimodular([[2, 0], [0, 1]])
    assert calls == []
    # any other matrix is one n x n elimination, a permuted diagonal included
    assert is_unimodular([[0, 0, -3], [3, 0, 0], [0, 3, 0]], 3)
    assert calls == [3]
    calls.clear()
    assert not is_unimodular([[1, 2, 0], [0, 0, 0], [3, 4, 0]])
    assert is_unimodular([[2, 1, 1], [1, 1, 1], [1, 1, 2]])
    assert calls == [3, 3]


def test_unimodularity_tests_decide_on_the_integral_quotient():
    # [[3, 2], [1, 1]] has det 1; [[1, 1/2], [0, 1]] has det 1 but is not integral
    assert is_unimodular([[6, 4], [2, 2]], 2)
    assert not is_unimodular([[2, 1], [0, 2]], 2)
    assert not is_unimodular([[4, 0], [0, 2]], 2)
    assert is_unimodular_ratio(([[9, 6], [3, 3]], 3), ([[1, 0], [0, 1]], 1))
    assert not is_unimodular_ratio(([[2, 1], [0, 2]], 2), ([[1, 0], [0, 1]], 1))
    assert not is_unimodular_ratio(([[2, 0], [0, 1]], 1), ([[1, 0], [0, 1]], 1))
    assert not is_unimodular_ratio(([[1, 0], [0, 1]], 1), ([[2, 0], [0, 1]], 1))


@settings(max_examples=80, deadline=None)
@given(rational_matrices(), st.data())
def test_rank_decisions_match_the_fraction_reference(a, data):
    # the rows of a rank-deficient matrix, with repeats and zero rows
    extra = data.draw(st.lists(st.sampled_from(a), max_size=3))
    zero = [[0] * len(a)] if data.draw(st.booleans()) else []
    vectors = a + extra + zero
    tracker, reference = RankTracker(len(a)), FractionRankTracker(len(a))
    assert ([tracker.try_add(scaled_row(v)) for v in vectors]
            == [reference.try_add(v) for v in vectors])
    assert tracker.rank == len(reference.rows)
    assert tracker.pivots == reference.pivots
    assert all(type(x) is int for row in tracker.rows for x in row)


def test_rank_tracker_rows_are_primitive_integers():
    tr = RankTracker(3)
    assert tr.try_add([6, 4, 0])  # (1/2, 1/3, 0) scaled by 12
    assert tr.try_add([4, 0, 6])
    assert not tr.try_add([15, 2, 18])  # (5/2, 1/3, 3) scaled by 6
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
