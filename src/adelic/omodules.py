"""Fractional ideals and finitely generated O-modules in K^n.

Modules are carried as pseudo-bases (ideal, vector) and expanded to exact
Z-bases of rank n*d on demand.  The trace dual is computed two independent
ways, once through the pseudo-basis and once through the full Gram matrix
of the Z-basis, and the spans are required to agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ConditioningError
from .exactla import (
    Matrix,
    RankTracker,
    is_integral_mat,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
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


def kcombination(
    field: NumberField, n: int, coeffs: Sequence, kvectors: Sequence[KVector],
) -> KVector:
    """The K-vector sum of c * v over paired coefficients and vectors of length n."""
    acc = [field.zero() for _ in range(n)]
    for c, vec in zip(coeffs, kvectors):
        if c:
            acc = [a + c * v for a, v in zip(acc, vec)]
    return tuple(acc)


class KRankTracker:
    """Incremental rank over K of lattice points, read on their Z-coordinates.

    `zbasis` is a Q-basis of K^n, the Z-basis of the lattice.  For each
    integral-basis element b, row i of the matrix M_b holds the
    coordinates of b * z_i, so the K-span of the point with coordinates
    c is spanned over Q by its d images c M_b.  One exact `RankTracker`
    holds the Q-span of the K-spans accepted so far: a point raises the
    K-rank exactly when it leaves that span, and then its images join
    it.  On an O-module the entries of every M_b are integers.
    """

    def __init__(self, field: NumberField, zbasis: Sequence[KVector]):
        self.field = field
        inv = _transpose_inv_cols(zbasis)
        # M_b transposed, so that the image c M_b is one mat_vec
        self.actions = [
            transpose([mat_vec(inv, flatten_kvector([b * x for x in z])) for z in zbasis])
            for b in field.basis_elements()]
        self.span = RankTracker(len(zbasis))

    def try_add(self, coords: Sequence[int]) -> bool:
        if not self.span.try_add(coords):
            return False
        for action in self.actions:
            self.span.try_add(mat_vec(action, coords))
        return True

    @property
    def rank(self) -> int:
        return self.span.rank // self.field.degree


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
        self._coord_inv = mat_inv(transpose(self.coord_matrix))
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
        # raises if the vectors are K-dependent
        self._wmat_inv = mat_inv([list(w) for _, w in self.pseudo])

    @cached_property
    def zbasis(self) -> list[KVector]:
        """Z-basis of the module: ideal generators times pseudo-vectors."""
        return [tuple(alpha * x for x in w) for a, w in self.pseudo for alpha in a.zbasis]

    @cached_property
    def _flat_inv(self) -> Matrix:
        return _transpose_inv_cols(self.zbasis)

    def coords_of(self, x: Sequence[FieldElement]) -> list[Fraction]:
        """Rational coordinates of x over the Z-basis."""
        if len(x) != self.rank:
            raise ValueError("vector length does not match module rank")
        return mat_vec(self._flat_inv, flatten_kvector(x))

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
        # rows of (W^t)^{-1} = (W^{-1})^t pair to delta_ij with the rows of W
        wstar = transpose(self._wmat_inv)
        dual = KModule(field, [(a.trace_dual(), tuple(row))
                               for (a, _), row in zip(self.pseudo, wstar)])

        # independent route: dual Z-basis from the Gram matrix of the pairing
        zb = self.zbasis
        nd = len(zb)
        gram = [[t_n(zb[i], zb[j]) for j in range(nd)] for i in range(nd)]
        if mat_det(gram) == 0:
            raise ConditioningError("pairing Gram matrix of the Z-basis is singular")
        ginv = mat_inv(gram)
        dual_z = [kcombination(field, self.rank, row, zb) for row in ginv]
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


def _transpose_inv_cols(kvectors: Sequence[KVector]) -> Matrix:
    """Inverse of the matrix whose columns are the flattened K-vectors."""
    return mat_inv(transpose([flatten_kvector(z) for z in kvectors]))


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
    ring = FractionalIdeal.whole_ring(field)
    return KModule(field, [(ring, tuple(col)) for col in transpose(a)])
