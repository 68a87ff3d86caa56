"""Fractional ideals and finitely generated O-modules in K^n.

Modules are carried as pseudo-bases (ideal, vector) and expanded to exact
Z-bases of rank n*d on demand.  The trace dual is computed two independent
ways, once through the pseudo-basis and once through the full Gram matrix
of the Z-basis, and the spans are required to agree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import ConditioningError
from .exactla import (
    Matrix,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    is_integral_mat,
)
from .numberfield import FieldElement, NumberField

KVector = tuple[FieldElement, ...]


def t_n(x: Sequence[FieldElement], y: Sequence[FieldElement]) -> Fraction:
    """Sum of Tr(x_k * y_k): the standard bilinear pairing on K^n."""
    if len(x) != len(y):
        raise ValueError("vectors of different length")
    total = Fraction(0)
    for a, b in zip(x, y):
        total += (a * b).trace()
    return total


def flatten_kvector(xs: Sequence[FieldElement]) -> list[Fraction]:
    """Rational coordinates of a K-vector, component-major over the power basis."""
    out: list[Fraction] = []
    for x in xs:
        out.extend(x.coords)
    return out


# ---------------------------------------------------------------------------
# matrices over K


def kmat_transpose(a: list[list[FieldElement]]) -> list[list[FieldElement]]:
    return [list(col) for col in zip(*a)]


def kmat_inv(a: list[list[FieldElement]]) -> list[list[FieldElement]]:
    n = len(a)
    field = a[0][0].field
    aug = [row[:] + [field.one() if i == j else field.zero() for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if not aug[r][c].is_zero()), None)
        if pivot is None:
            raise ValueError("singular matrix over the field")
        if pivot != c:
            aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and not aug[r][c].is_zero():
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


class KRankTracker:
    """Incremental rank over K of a growing set of vectors in K^n."""

    def __init__(self, field: NumberField, n: int):
        self.field = field
        self.n = n
        self.rows: list[list[FieldElement]] = []
        self.pivots: list[int] = []

    def try_add(self, vec: Sequence[FieldElement]) -> bool:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if not v[p].is_zero():
                f = v[p] / row[p]
                v = [x - f * y for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if not x.is_zero()), None)
        if pivot is None:
            return False
        self.rows.append(v)
        self.pivots.append(pivot)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------


class FractionalIdeal:
    """Nonzero fractional ideal of O, held as an exact Z-basis."""

    def __init__(self, field: NumberField, zbasis: Sequence[FieldElement], validate: bool = True):
        if len(zbasis) != field.degree:
            raise ValueError("ideal basis must have one generator per degree")
        self.field = field
        self.zbasis = tuple(zbasis)
        self.coord_matrix: Matrix = [list(b.coords) for b in self.zbasis]
        if mat_det(self.coord_matrix) == 0:
            raise ValueError("ideal basis is linearly dependent")
        self._coord_inv = mat_inv(
            [[self.coord_matrix[j][i] for j in range(field.degree)]
             for i in range(field.degree)])
        if validate:
            self._validate_module_structure()

    def _validate_module_structure(self):
        # closure under multiplication by the ring's integral basis
        for b in self.field.basis_elements():
            for a in self.zbasis:
                if not self.contains(a * b):
                    raise ValueError("ideal basis is not stable under the ring")

    def coords_of(self, x: FieldElement) -> list[Fraction]:
        return mat_vec(self._coord_inv, list(x.coords))

    def contains(self, x: FieldElement) -> bool:
        return all(c.denominator == 1 for c in self.coords_of(x))

    def equals(self, other: "FractionalIdeal") -> bool:
        if not self.field.same_presentation(other.field):
            return False
        c = mat_mul(self.coord_matrix, mat_inv(other.coord_matrix))
        return is_integral_mat(c) and abs(mat_det(c)) == 1

    def scaled(self, x: FieldElement) -> "FractionalIdeal":
        if x.is_zero():
            raise ValueError("cannot scale an ideal by zero")
        return FractionalIdeal(self.field, [x * b for b in self.zbasis])

    def trace_dual(self) -> "FractionalIdeal":
        """The complementary ideal: all y with Tr(y * a) integral on this ideal."""
        els = list(self.zbasis)
        d = self.field.degree
        gram = [[(els[i] * els[j]).trace() for j in range(d)] for i in range(d)]
        dual_coords = mat_mul(mat_inv(gram), self.coord_matrix)
        duals = [self.field.element(row) for row in dual_coords]
        out = FractionalIdeal(self.field, duals)
        for u in duals:
            for b in els:
                if (u * b).trace().denominator != 1:
                    raise ConditioningError("ideal trace dual failed verification")
        return out

    @classmethod
    def whole_ring(cls, field: NumberField) -> "FractionalIdeal":
        return cls(field, field.basis_elements(), validate=False)

    @classmethod
    def principal(cls, field: NumberField, x: FieldElement) -> "FractionalIdeal":
        if x.is_zero():
            raise ValueError("zero does not generate a fractional ideal")
        return cls(field, [x * b for b in field.basis_elements()], validate=False)

    def __repr__(self):
        return f"FractionalIdeal({[list(b.coords) for b in self.zbasis]})"


class KModule:
    """Full O-module of rank n in K^n, given by a pseudo-basis."""

    def __init__(self, field: NumberField, pseudo: Sequence[tuple[FractionalIdeal, KVector]]):
        self.field = field
        self.rank = len(pseudo)
        self.pseudo = [(a, tuple(w)) for a, w in pseudo]
        n = self.rank
        for a, w in self.pseudo:
            if a.field is not field:
                raise ValueError("ideal belongs to a different field")
            if len(w) != n:
                raise ValueError("pseudo-basis vectors must have length equal to the rank")
        wmat = [list(w) for _, w in self.pseudo]
        self._wmat = wmat
        self._wmat_inv = kmat_inv(wmat)  # raises if the vectors are K-dependent
        self._zbasis: list[KVector] | None = None
        self._flat_inv: Matrix | None = None

    @property
    def zbasis(self) -> list[KVector]:
        """Z-basis of the module: ideal generators times pseudo-vectors."""
        if self._zbasis is None:
            out: list[KVector] = []
            for a, w in self.pseudo:
                for alpha in a.zbasis:
                    out.append(tuple(alpha * x for x in w))
            self._zbasis = out
        return self._zbasis

    def _flat_matrix_inv(self) -> Matrix:
        if self._flat_inv is None:
            cols = [flatten_kvector(z) for z in self.zbasis]
            nd = len(cols)
            mat = [[cols[j][i] for j in range(nd)] for i in range(nd)]
            self._flat_inv = mat_inv(mat)
        return self._flat_inv

    def coords_of(self, x: Sequence[FieldElement]) -> list[Fraction]:
        """Rational coordinates of x over the Z-basis."""
        if len(x) != self.rank:
            raise ValueError("vector length does not match module rank")
        return mat_vec(self._flat_matrix_inv(), flatten_kvector(x))

    def contains(self, x: Sequence[FieldElement]) -> bool:
        return all(c.denominator == 1 for c in self.coords_of(x))

    def equals(self, other: "KModule") -> bool:
        if self.rank != other.rank or not self.field.same_presentation(other.field):
            return False
        c = [other.coords_of(z) for z in self.zbasis]
        return is_integral_mat(c) and abs(mat_det(c)) == 1

    def trace_dual(self) -> "KModule":
        """Dual module under the pairing sum Tr(x_k y_k), two routes cross-checked."""
        field = self.field
        # rows of (W^t)^{-1} pair to delta_ij with the rows of W
        wstar = kmat_inv(kmat_transpose(self._wmat))
        dual = KModule(field, [(a.trace_dual(), tuple(row))
                               for (a, _), row in zip(self.pseudo, wstar)])

        # independent route: dual Z-basis from the Gram matrix of the pairing
        zb = self.zbasis
        nd = len(zb)
        gram = [[t_n(zb[i], zb[j]) for j in range(nd)] for i in range(nd)]
        if mat_det(gram) == 0:
            raise ConditioningError("pairing Gram matrix of the Z-basis is singular")
        ginv = mat_inv(gram)
        dual_z: list[KVector] = []
        for i in range(nd):
            vec = [field.zero() for _ in range(self.rank)]
            for j in range(nd):
                c = ginv[i][j]
                if c:
                    vec = [v + c * z for v, z in zip(vec, zb[j])]
            dual_z.append(tuple(vec))
        for v in dual_z:
            if not dual.contains(v):
                raise ConditioningError("trace dual routes disagree")
        dual_z_inv = _transpose_inv_cols(dual_z)
        for v in dual.zbasis:
            coords = mat_vec(dual_z_inv, flatten_kvector(v))
            if any(c.denominator != 1 for c in coords):
                raise ConditioningError("trace dual routes disagree")
        return dual

    def __repr__(self):
        return f"KModule(rank={self.rank}, field={self.field!r})"


def _transpose_inv_cols(kvectors: list[KVector]) -> Matrix:
    cols = [flatten_kvector(z) for z in kvectors]
    nd = len(cols)
    mat = [[cols[j][i] for j in range(nd)] for i in range(nd)]
    return mat_inv(mat)


def standard_module(field: NumberField, n: int) -> KModule:
    """O^n with the obvious pseudo-basis."""
    ring = FractionalIdeal.whole_ring(field)
    pseudo = []
    for i in range(n):
        e = tuple(field.one() if j == i else field.zero() for j in range(n))
        pseudo.append((ring, e))
    return KModule(field, pseudo)


def module_from_matrix(field: NumberField, a: list[list[FieldElement]]) -> KModule:
    """The module A * O^n, generated over O by the columns of A."""
    n = len(a)
    ring = FractionalIdeal.whole_ring(field)
    cols = kmat_transpose(a)
    return KModule(field, [(ring, tuple(col)) for col in cols])
