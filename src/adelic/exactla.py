"""Exact linear algebra over the rationals and over a number field.

Small dense systems only.  Everything here is Gaussian elimination on
exact entries, used where floating point would silently destroy
unimodularity and duality identities.  The entries may be `Fraction`s,
integers (products of integer matrices stay integers) or number field
elements (matrices over K); pivots and eliminations are tested with
`!= 0`, which all of them support.
"""

from __future__ import annotations

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


def mat_det(a: Matrix) -> Fraction:
    n = len(a)
    m = [row[:] for row in a]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def mat_solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve A X = B for square nonsingular A; B is n x k."""
    n = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != c:
            aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


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
    """Incremental exact rank of a growing set of rational vectors."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []

    def try_add(self, vec: Sequence[Fraction]) -> bool:
        """Reduce vec against the stored echelon; keep it if independent."""
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p] / row[p]
                v = [x - f * y for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        self.rows.append(v)
        self.pivots.append(pivot)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
