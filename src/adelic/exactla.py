"""Exact linear algebra over the rationals.

Small dense systems only, used where floating point would silently
destroy unimodularity and duality identities.  Input (ints and
`Fraction`s) runs on Python ints through one elimination core: each row
is scaled to integers once and eliminated fraction-free (Bareiss 1968;
Cohen, GTM 138, 2.2), with every division by the previous pivot exact,
and a `Fraction` is built only for a returned determinant or for each
entry of a returned solution.  `RankTracker` keeps primitive integer
rows and builds no `Fraction` at all.  A system over a number field K
is brought here through its regular representation over Q (see
`omodules.KModule.regular`), never eliminated on field elements.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]


def identity_matrix(m: int) -> Matrix:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(m)] for i in range(m)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _integer_row(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """The row times the lcm s of its denominators, and s."""
    s = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (s // x.denominator) for x in row], s


def integer_matrix(a: Matrix) -> tuple[list[list[int]], int]:
    """Integer rows N and a common denominator s with a = N / s."""
    s = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (s // x.denominator) for x in row] for row in a], s


def _bareiss(m: list[list[int]], n: int) -> int:
    """Fraction-free elimination below the diagonal of the leading n columns, in place.

    The rows of m end as an upper triangular integer system with the
    same solutions; returns the determinant of the leading n x n block
    (0, with the elimination stopped, when it is singular).
    """
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for r in range(k + 1, n):
            row = m[r]
            f = row[k]
            # exact: every entry is a minor of the scaled input (Sylvester's identity)
            row[k:] = [0] + [(x * p - f * y) // prev for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = p
    return sign * prev


def mat_det(a: Matrix) -> Fraction:
    """Determinant of a square rational matrix."""
    rows = [_integer_row(row) for row in a]
    return Fraction(_bareiss([r for r, _ in rows], len(a)), math.prod(s for _, s in rows))


def mat_solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B for square nonsingular A; B is n x k."""
    n = len(a)
    m = [_integer_row(list(ra) + list(rb))[0] for ra, rb in zip(a, b)]
    det = _bareiss(m, n)
    if det == 0:
        raise ValueError("singular matrix")
    # back substitution on det * X, which is integral (an adjugate times
    # the scaled B), so each division by a diagonal entry is exact
    x: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = m[i]
        x[i] = [(det * row[n + j] - sum(row[c] * x[c][j] for c in range(i + 1, n))) // row[i]
                for j in range(len(row) - n)]
    return [[Fraction(v, det) for v in xi] for xi in x]


def mat_inv(a: Matrix) -> Matrix:
    return mat_solve(a, identity_matrix(len(a)))


def solve_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [row[0] for row in mat_solve(a, [[x] for x in v])]


def is_integral_vec(v: Sequence[Fraction]) -> bool:
    return all(x.denominator == 1 for x in v)


def is_integral_mat(a: Matrix) -> bool:
    return all(is_integral_vec(row) for row in a)


def is_unimodular(a: Matrix) -> bool:
    """Integral with determinant +-1: a change of basis of one Z-lattice."""
    return is_integral_mat(a) and abs(mat_det(a)) == 1


class RankTracker:
    """Incremental exact rank of a growing set of rational vectors of length dim.

    The echelon rows are primitive integer vectors.  A vector is scaled
    to integers once and reduced against them by gcd-reduced integer
    combinations, so the span is decided without building a `Fraction`.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def try_add(self, vec: Sequence[Fraction]) -> bool:
        """Reduce vec against the stored echelon; keep it if independent."""
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)} in a rank tracker of dimension {self.dim}")
        v = _integer_row(vec)[0]
        for row, p in zip(self.rows, self.pivots):
            f = v[p]
            if f:
                e = row[p]
                g = math.gcd(e, f)
                e, f = e // g, f // g
                v = [e * x - f * y for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            return False
        g = math.gcd(*v)
        self.rows.append([x // g for x in v])
        self.pivots.append(pivot)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
