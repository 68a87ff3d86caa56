"""Fractional ideals and finitely generated O-modules in K^n.

Modules are carried as pseudo-bases (ideal, vector), after Cohen, GTM
193, ch. 1.  The pseudo-vector matrix W over K is read through its
regular representation R(W) over Q: the module's Z-basis is the integer
product blockdiag(C_i) R(W) with the ideals' coordinate matrices C_i,
K-independence is det R(W) != 0, and the dual's vectors (W^-1)^t come
from one rational solve with R(W)^t.  Comparisons and traces are
products of coordinate matrices with the field's trace form
P[i][j] = Tr(theta^(i+j)).  The trace dual is built through the
pseudo-basis, one dual per distinct ideal, and checked by its pairing
matrix with the module, which must be integral with determinant +-1.
An ideal's integer action matrices are computed when first read and
checked there; `KRankTracker` composes them into integer maps on
lattice coordinates, so K-rank is decided on Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ConditioningError
from .exactla import (
    Matrix,
    RankTracker,
    integer_matrix,
    is_integral_mat,
    is_unimodular,
    mat_det,
    mat_inv,
    mat_mul,
    mat_solve,
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


class KRankTracker:
    """Incremental rank over K of lattice points, read on their integer coordinates.

    Coordinates c over the basis U z (U = `transform`, z the module's
    Z-basis) are c U over z.  On z an integral-basis element b acts
    block-diagonally, block i being its integer action on the i-th ideal
    of the pseudo-basis, so the K-span of the point is spanned over Q by
    its d images c U M_b.  U and the M_b are integer matrices, so every
    image is an integer vector.  One exact `RankTracker` holds the
    Q-span of the K-spans accepted so far: a point raises the K-rank
    exactly when it leaves that span, and then its images join it.
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
        if len(coords) != self.span.dim:
            raise ValueError(f"coordinates of length {len(coords)} in a K-rank tracker "
                             f"of dimension {self.span.dim}")
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

    def __init__(self, field: NumberField, zbasis: Sequence[FieldElement]):
        if len(zbasis) != field.degree:
            raise ValueError("ideal basis must have one generator per degree")
        self._set_basis(field, zbasis)
        if mat_det(self.coord_matrix) == 0:
            raise ValueError("ideal basis is linearly dependent")
        self.actions  # raises unless the basis is stable under the ring

    def _set_basis(self, field: NumberField, zbasis: Sequence[FieldElement]):
        self.field = field
        self.zbasis = tuple(zbasis)
        self.coord_matrix: Matrix = [list(b.coords) for b in self.zbasis]

    @classmethod
    def _known(cls, field: NumberField, zbasis: Sequence[FieldElement]) -> "FractionalIdeal":
        """An ideal whose basis is independent and stable under O by construction."""
        ideal = cls.__new__(cls)
        ideal._set_basis(field, zbasis)
        return ideal

    @cached_property
    def actions(self) -> list[list[list[int]]]:
        """Per integral-basis element b, row j = the integer coordinates of b * zbasis[j].

        Raises `ValueError` unless every entry is an integer, that is
        unless the ideal is stable under O.
        """
        inv = mat_inv(self.coord_matrix)
        actions = [mat_mul([list((b * a).coords) for a in self.zbasis], inv)
                   for b in self.field.basis_elements()]
        if not all(is_integral_mat(m) for m in actions):
            raise ValueError("ideal basis is not stable under the ring")
        return [[[x.numerator for x in row] for row in m] for m in actions]

    def equals(self, other: "FractionalIdeal") -> bool:
        if not self.field.same_presentation(other.field):
            return False
        return is_unimodular(mat_mul(self.coord_matrix, mat_inv(other.coord_matrix)))

    def scaled(self, x: FieldElement) -> "FractionalIdeal":
        if x.is_zero():
            raise ValueError("cannot scale an ideal by zero")
        return FractionalIdeal(self.field, [x * b for b in self.zbasis])

    def trace_dual(self) -> "FractionalIdeal":
        """The complementary ideal: all y with Tr(y * a) integral on this ideal.

        Computed once per ideal object.
        """
        return self._dual

    @cached_property
    def _dual(self) -> "FractionalIdeal":
        c = self.coord_matrix
        cp = mat_mul(c, self.field.trace_form)
        dual_coords = mat_mul(mat_inv(mat_mul(cp, transpose(c))), c)
        # the pairings Tr(u * a) of the two Z-bases form the identity
        if not is_unimodular(mat_mul(dual_coords, transpose(cp))):
            raise ConditioningError("ideal trace dual failed verification")
        # the complementary ideal of an O-ideal is an O-ideal
        return FractionalIdeal._known(self.field, [self.field.element(row) for row in dual_coords])

    @classmethod
    def whole_ring(cls, field: NumberField) -> "FractionalIdeal":
        """O as an ideal: one object per field, so that its dual is computed once."""
        ring = vars(field).get("_whole_ring")
        if ring is None:
            ring = field._whole_ring = cls._known(field, field.basis_elements())
        return ring

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
        # det R(W) is the norm of det W up to sign: nonzero iff the vectors are K-independent
        if mat_det(self.regular) == 0:
            raise ValueError("singular matrix")

    @cached_property
    def regular(self) -> Matrix:
        """R(W), nd x nd over Q with flatten(x W) = flatten(x) R(W), W the pseudo-vector rows.

        Block (i, j) is the transposed multiplication matrix of W_ij.
        """
        d = self.field.degree
        rows: Matrix = [[] for _ in range(self.rank * d)]
        for i, (_, w) in enumerate(self.pseudo):
            for x in w:
                for r, col in enumerate(transpose(self.field._mult_matrix(x.coords))):
                    rows[i * d + r].extend(col)
        return rows

    @cached_property
    def flat(self) -> Matrix:
        """The Z-basis as rational coordinate rows (`flatten_kvector`), row (i, k) alpha_k w_i.

        It is the integer product blockdiag(C_i) R(W), C_i the i-th ideal's `coord_matrix`.
        """
        d = self.field.degree
        r, t = integer_matrix(self.regular)
        out: Matrix = []
        for i, (a, _) in enumerate(self.pseudo):
            c, s = integer_matrix(a.coord_matrix)
            block = mat_mul(c, r[i * d:(i + 1) * d])
            out.extend([Fraction(x, s * t) for x in row] for row in block)
        return out

    @cached_property
    def zbasis(self) -> list[KVector]:
        """Z-basis of the module: ideal generators times pseudo-vectors, read off `flat`."""
        d = self.field.degree
        return [tuple(self.field.element(row[k:k + d]) for k in range(0, len(row), d))
                for row in self.flat]

    def pairing(self, other: "KModule") -> Matrix:
        """sum_k Tr(x_k y_k) over the Z-bases: self.flat (I_n (x) P) other.flat^t.

        The product runs on the integer numerators of its three factors.
        """
        d = self.field.degree
        p, r = integer_matrix(self.field.trace_form)
        a, s = integer_matrix(self.flat)
        b, t = integer_matrix(other.flat)
        other_p = [[x for k in range(0, len(y), d) for x in mat_vec(p, y[k:k + d])] for y in b]
        return [[Fraction(x, r * s * t) for x in row] for row in mat_mul(a, transpose(other_p))]

    def equals(self, other: "KModule") -> bool:
        if self.rank != other.rank or not self.field.same_presentation(other.field):
            return False
        return is_unimodular(mat_mul(self.flat, mat_inv(other.flat)))

    def trace_dual(self) -> "KModule":
        """Dual module under the pairing sum Tr(x_k y_k), two routes cross-checked."""
        field, n, d = self.field, self.rank, self.field.degree
        # row i of W^-1 is the v with v W = e_i, that is flatten(v) R(W) = e_(id):
        # column i of y below is flatten(v)
        y = mat_solve(transpose(self.regular), [[int(r == i * d) for i in range(n)]
                                                 for r in range(n * d)])
        # the rows of (W^-1)^t pair to delta_ij with the rows of W; the j-th
        # row is the j-th component of every row of W^-1, the j-th block of y
        wstar = [tuple(field.element(col) for col in transpose(y[j * d:(j + 1) * d]))
                 for j in range(n)]
        # module_from_matrix and standard_module share one ideal across the pairs
        duals = {a: a.trace_dual() for a in dict.fromkeys(a for a, _ in self.pseudo)}
        dual = KModule(field, [(duals[a], w) for (a, _), w in zip(self.pseudo, wstar)])
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
