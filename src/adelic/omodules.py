"""Fractional ideals and finitely generated O-modules in K^n.

Modules are carried as pseudo-bases (ideal, vector), after Cohen, GTM
193, ch. 1.  Their exact Z-bases are held as coordinate matrices over
the power basis, and comparisons and traces are products of those with
the field's trace form P[i][j] = Tr(theta^(i+j)).  The trace dual is
built through the pseudo-basis and checked by its pairing matrix with
the module, which must be integral with determinant +-1.
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
    is_unimodular,
    mat_det,
    mat_inv,
    mat_mul,
    mat_vec,
    transpose,
)
from .numberfield import FieldElement, NumberField

KVector = tuple[FieldElement, ...]


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
    """Incremental rank over K of lattice points, read on their integer coordinates.

    Coordinates c over the basis U z (U = `transform`, z the module's
    Z-basis) are c U over z.  On z an integral-basis element b acts
    block-diagonally, block i being its integer action on the i-th ideal
    of the pseudo-basis, so the K-span of the point is spanned over Q by
    its d images c U M_b.  One exact `RankTracker` holds the Q-span of
    the K-spans accepted so far: a point raises the K-rank exactly when
    it leaves that span, and then its images join it.
    """

    def __init__(self, module: "KModule", transform: Sequence[Sequence[int]]):
        d = module.field.degree
        nd = module.rank * d
        self.degree = d
        # U and each U M_b transposed, so that an image is one mat_vec
        self.coords_map = transpose(transform)
        self.actions = []
        for k in range(d):
            m_b = [[0] * nd for _ in range(nd)]
            for i, (ideal, _) in enumerate(module.pseudo):
                for r, row in enumerate(ideal.actions[k]):
                    m_b[i * d + r][i * d:(i + 1) * d] = row
            self.actions.append(transpose(mat_mul(transform, m_b)))
        self.span = RankTracker(nd)

    def try_add(self, coords: Sequence[int]) -> bool:
        if not self.span.try_add(mat_vec(self.coords_map, coords)):
            return False
        for action in self.actions:
            self.span.try_add(mat_vec(action, coords))
        return True

    @property
    def rank(self) -> int:
        return self.span.rank // self.degree


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
        if validate and not all(is_integral_mat(m) for m in self.actions):
            raise ValueError("ideal basis is not stable under the ring")

    @cached_property
    def actions(self) -> list[Matrix]:
        """Per integral-basis element b, row j = coordinates of b * zbasis[j].

        All entries are integers exactly when the ideal is stable under O.
        """
        inv = mat_inv(self.coord_matrix)
        return [mat_mul([list((b * a).coords) for a in self.zbasis], inv)
                for b in self.field.basis_elements()]

    def equals(self, other: "FractionalIdeal") -> bool:
        if not self.field.same_presentation(other.field):
            return False
        return is_unimodular(mat_mul(self.coord_matrix, mat_inv(other.coord_matrix)))

    def scaled(self, x: FieldElement) -> "FractionalIdeal":
        if x.is_zero():
            raise ValueError("cannot scale an ideal by zero")
        return FractionalIdeal(self.field, [x * b for b in self.zbasis])

    def trace_dual(self) -> "FractionalIdeal":
        """The complementary ideal: all y with Tr(y * a) integral on this ideal."""
        c = self.coord_matrix
        cp = mat_mul(c, self.field.trace_form)
        dual_coords = mat_mul(mat_inv(mat_mul(cp, transpose(c))), c)
        # the pairings Tr(u * a) of the two Z-bases form the identity
        if not is_unimodular(mat_mul(dual_coords, transpose(cp))):
            raise ConditioningError("ideal trace dual failed verification")
        return FractionalIdeal(self.field, [self.field.element(row) for row in dual_coords])

    @classmethod
    def whole_ring(cls, field: NumberField) -> "FractionalIdeal":
        return cls(field, field.basis_elements(), validate=False)

    def __repr__(self):
        return f"FractionalIdeal({[list(b.coords) for b in self.zbasis]})"


class KModule:
    """Full O-module of rank n in K^n, given by a pseudo-basis."""

    def __init__(self, field: NumberField, pseudo: Sequence[tuple[FractionalIdeal, KVector]]):
        self._set_pseudo(field, pseudo)
        # raises if the vectors are K-dependent
        self._wmat_inv = mat_inv([list(w) for _, w in self.pseudo])

    def _set_pseudo(self, field: NumberField, pseudo: Sequence[tuple[FractionalIdeal, KVector]]):
        self.field = field
        self.rank = len(pseudo)
        self.pseudo = [(a, tuple(w)) for a, w in pseudo]
        n = self.rank
        for a, w in self.pseudo:
            if a.field is not field:
                raise ValueError("ideal belongs to a different field")
            if len(w) != n:
                raise ValueError("pseudo-basis vectors must have length equal to the rank")

    @classmethod
    def _with_inverse(cls, field: NumberField, pseudo, wmat_inv: Matrix) -> "KModule":
        """A module whose pseudo-vector matrix has the known inverse `wmat_inv`."""
        module = cls.__new__(cls)
        module._set_pseudo(field, pseudo)
        module._wmat_inv = wmat_inv
        return module

    @cached_property
    def zbasis(self) -> list[KVector]:
        """Z-basis of the module: ideal generators times pseudo-vectors."""
        return [tuple(alpha * x for x in w) for a, w in self.pseudo for alpha in a.zbasis]

    @cached_property
    def flat(self) -> Matrix:
        """The Z-basis as rows of rational coordinates (`flatten_kvector`)."""
        return [flatten_kvector(z) for z in self.zbasis]

    def pairing(self, other: "KModule") -> Matrix:
        """sum_k Tr(x_k y_k) over the Z-bases: self.flat (I_n (x) P) other.flat^t."""
        p = self.field.trace_form
        d = self.field.degree
        other_p = [[x for k in range(0, len(y), d) for x in mat_vec(p, y[k:k + d])]
                   for y in other.flat]
        return mat_mul(self.flat, transpose(other_p))

    def equals(self, other: "KModule") -> bool:
        if self.rank != other.rank or not self.field.same_presentation(other.field):
            return False
        return is_unimodular(mat_mul(self.flat, mat_inv(other.flat)))

    def trace_dual(self) -> "KModule":
        """Dual module under the pairing sum Tr(x_k y_k), two routes cross-checked."""
        field = self.field
        # rows of (W^t)^{-1} = (W^{-1})^t pair to delta_ij with the rows of W,
        # and W^t is their matrix's inverse
        wstar = transpose(self._wmat_inv)
        dual = KModule._with_inverse(
            field, [(a.trace_dual(), tuple(row)) for (a, _), row in zip(self.pseudo, wstar)],
            transpose([list(w) for _, w in self.pseudo]))
        # second route: dual's Z-basis spans the lattice dual to ours (the
        # span of G^-1 z, G the Gram matrix) iff their pairings are unimodular
        if not is_unimodular(dual.pairing(self)):
            raise ConditioningError("trace dual routes disagree")
        return dual

    def __repr__(self):
        return f"KModule(rank={self.rank}, field={self.field!r})"


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
