"""Exact linear algebra over the rationals.

Small dense systems only, used where floating point would silently
destroy unimodularity and duality identities.  A rational matrix is
held as integer numerators N with one positive scale s, the matrix being
N / s (`integer_matrix`), and products, solves and unimodularity tests
run on N.  `solve_scaled` is the one elimination: fraction-free (Bareiss
1968; Cohen, GTM 138, 2.2), every division by the previous pivot exact,
with the solution returned over one denominator, and "singular matrix"
raised instead; callers let the solve they need be their independence
test.  `is_unimodular` reads a diagonal matrix off and eliminates any
other once, whole.  `mat_det` and `mat_inv` take ints and `Fraction`s
and build a `Fraction` only for what they return.  `RankTracker` takes
integer vectors: the integer coordinates of lattice points for the rank
over Q, and for the rank over K their power-basis numerators and theta
images (`omodules.KRankTracker`).  Dot products are
`sum(map(operator.mul, ...))`, exact and looped in C.  A system over a
number field K is brought here through its regular representation over
Q (see `omodules.KModule.regular`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

Matrix = list[list[Fraction]]
IntMatrix = list[list[int]]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Product of integer matrices; a rational factor enters as its numerators."""
    bt = transpose(b)
    return [[sum(map(operator.mul, row, col)) for col in bt] for row in a]


def mat_vec(a: Matrix, v: Sequence[Fraction]) -> list[Fraction]:
    return [sum(map(operator.mul, row, v)) for row in a]


def integer_matrix(a: Matrix) -> tuple[IntMatrix, int]:
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
    num, s = integer_matrix(a)
    return Fraction(_bareiss(num, len(a)), s ** len(a))


def solve_scaled(a: IntMatrix, b: IntMatrix) -> tuple[IntMatrix, int]:
    """Y and d > 0 with A X = B for X = Y / d in lowest terms; A square nonsingular.

    A (n x n) and B (n x k) are integer matrices; a system over Q is
    passed as its rows scaled to integers, which leaves X unchanged.
    """
    n = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    det = _bareiss(m, n)
    if det == 0:
        raise ValueError("singular matrix")
    # back substitution on det * X, which is integral (an adjugate times
    # B), so each division by a diagonal entry is exact
    x: IntMatrix = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = m[i]
        below = list(zip(*x[i + 1:])) or [()] * (len(row) - n)  # the columns of x under row i
        x[i] = [(det * r - sum(map(operator.mul, row[i + 1:n], col))) // row[i]
                for r, col in zip(row[n:], below)]
    g = math.gcd(det, *(v for row in x for v in row)) * (-1 if det < 0 else 1)
    return [[v // g for v in row] for row in x], det // g


def mat_inv(a: Matrix) -> Matrix:
    """Inverse of a square nonsingular rational matrix A = N / s, from N X = s I."""
    num, s = integer_matrix(a)
    y, d = solve_scaled(num, [[s * (i == j) for j in range(len(a))] for i in range(len(a))])
    return [[Fraction(v, d) for v in row] for row in y]


def is_unimodular(a: Matrix, scale: int = 1) -> bool:
    """a / scale is integral and the quotient has determinant +-1: a Z-lattice's change of basis.

    A diagonal matrix is read off; any other is eliminated once, whole.
    """
    if any(x % scale for row in a for x in row):
        return False
    if not any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        return all(abs(row[i]) == scale for i, row in enumerate(a))
    return abs(_bareiss([[x // scale for x in row] for row in a], len(a))) == 1


def is_unimodular_ratio(a: tuple[IntMatrix, int], b: tuple[IntMatrix, int]) -> bool:
    """The rows of A = N / s and B = M / t, given as (N, s) and (M, t), span one Z-lattice.

    One solve of M^t Y^t = N^t gives A B^-1 = t Y^t / (s d), which must
    be integral with determinant +-1.
    """
    (na, s), (nb, t) = a, b
    y, d = solve_scaled(transpose(nb), transpose(na))
    return is_unimodular([[v * t for v in row] for row in y], s * d)


class RankTracker:
    """Incremental exact rank of a growing set of integer vectors of length dim.

    The echelon rows are primitive integer vectors.  A vector (a rational
    one scaled to integers by its caller) is reduced against them by
    gcd-reduced integer combinations, without building a `Fraction`.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    def try_add(self, vec: Sequence[int]) -> bool:
        """Reduce vec against the stored echelon; keep it if independent."""
        if len(vec) != self.dim:
            raise ValueError(f"vector of length {len(vec)} in a rank tracker of dimension {self.dim}")
        v = vec
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
