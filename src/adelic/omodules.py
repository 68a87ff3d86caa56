"""Fractional ideals and finitely generated O-modules in K^n.

Modules are carried as pseudo-bases (ideal, vector), after Cohen, GTM
193, ch. 1.  Every rational matrix here is held as integer numerators N
with one scale s (the matrix is N / s): an ideal's coordinates
`int_coords`, the regular representation R(W) over Q of the
pseudo-vector matrix W, and the module's Z-basis `int_flat`, the
product blockdiag(C_i) R(W).  K-independence is det R(W) != 0, the
dual's vectors (W^-1)^t come from one solve with R(W)^t, and equality
is one unimodular-ratio test; no matrix is inverted and no `Fraction` is
multiplied.  The trace dual is built through the pseudo-basis, one dual
per distinct ideal, and checked by its pairing matrix with the module
under the trace form P[i][j] = Tr(theta^(i+j)), which must be unimodular.
`KRankTracker` composes the ideals' integer actions into integer maps on
lattice coordinates, so K-rank is decided on Python ints.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ConditioningError
from .exactla import (
    IntMatrix,
    Matrix,
    RankTracker,
    integer_matrix,
    is_unimodular,
    is_unimodular_ratio,
    mat_det,
    mat_mul,
    mat_vec,
    solve_scaled,
    transpose,
)
from .numberfield import FieldElement, NumberField

KVector = tuple[FieldElement, ...]


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
    """Nonzero fractional ideal of O, held as the exact Z-basis `int_coords`.

    That is (N, s): the basis coordinates over the power basis are N / s.
    """

    def __init__(self, field: NumberField, zbasis: Sequence[FieldElement]):
        if len(zbasis) != field.degree:
            raise ValueError("ideal basis must have one generator per degree")
        self.field = field
        self.zbasis = tuple(zbasis)
        self.int_coords = integer_matrix([b.coords for b in self.zbasis])
        if mat_det(self.int_coords[0]) == 0:
            raise ValueError("ideal basis is linearly dependent")
        self.actions  # raises unless the basis is stable under the ring

    @classmethod
    def _known(cls, field: NumberField, int_coords: tuple[IntMatrix, int]) -> "FractionalIdeal":
        """An ideal whose basis is independent and stable under O by construction."""
        ideal = cls.__new__(cls)
        ideal.field, ideal.int_coords = field, int_coords
        return ideal

    @cached_property
    def zbasis(self) -> tuple[FieldElement, ...]:
        n, s = self.int_coords
        return tuple(self.field.element([Fraction(x, s) for x in row]) for row in n)

    @cached_property
    def actions(self) -> list[IntMatrix]:
        """Per integral-basis element b, row j = the integer coordinates of b * zbasis[j].

        Raises `ValueError` unless every entry is an integer, that is
        unless the ideal is stable under O.
        """
        actions = self.field._actions(self.int_coords[0])
        if actions is None:
            raise ValueError("ideal basis is not stable under the ring")
        return actions

    def equals(self, other: "FractionalIdeal") -> bool:
        if not self.field.same_presentation(other.field):
            return False
        return is_unimodular_ratio(self.int_coords, other.int_coords)

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
        # for the coordinate matrix C = N / s the dual basis is
        # (C P C^t)^-1 C = Y / q, from (N P N^t) Y = q s N
        n, s = self.int_coords
        n_p = mat_mul(n, self.field.trace_form)
        y, q = solve_scaled(mat_mul(n_p, transpose(n)), [[s * x for x in row] for row in n])
        # the pairings Tr(u * a) of the two Z-bases, Y P N^t / (q s), form the identity
        if not is_unimodular(mat_mul(y, transpose(n_p)), q * s):
            raise ConditioningError("ideal trace dual failed verification")
        # the complementary ideal of an O-ideal is an O-ideal
        return FractionalIdeal._known(self.field, (y, q))

    @classmethod
    def whole_ring(cls, field: NumberField) -> "FractionalIdeal":
        """O as an ideal: one object per field, so that its dual is computed once."""
        ring = vars(field).get("_whole_ring")
        if ring is None:
            ring = field._whole_ring = cls._known(field, integer_matrix(field.basis_matrix))
        return ring

    def __repr__(self):
        return f"FractionalIdeal({[list(b.coords) for b in self.zbasis]})"


class KModule:
    """Full O-module of rank n in K^n, given by a pseudo-basis."""

    def __init__(self, field: NumberField, pseudo: Sequence[tuple[FractionalIdeal, KVector]]):
        self.field = field
        self.rank = len(pseudo)
        self.pseudo = [(a, tuple(w)) for a, w in pseudo]
        for a, w in self.pseudo:
            if a.field is not field:
                raise ValueError("ideal belongs to a different field")
            if len(w) != self.rank:
                raise ValueError("pseudo-basis vectors must have length equal to the rank")
        # det R(W) is the norm of det W up to sign: nonzero iff the vectors are K-independent
        if mat_det(self.regular[0]) == 0:
            raise ValueError("singular matrix")

    @classmethod
    def _known(cls, field: NumberField, pseudo: list[tuple[FractionalIdeal, KVector]]) -> "KModule":
        """A module whose pseudo-vectors are K-independent by construction."""
        module = cls.__new__(cls)
        module.field, module.rank, module.pseudo = field, len(pseudo), pseudo
        return module

    @cached_property
    def regular(self) -> tuple[IntMatrix, int]:
        """R(W) = N / t as (N, t): the nd x nd matrix with flatten(x W) = flatten(x) R(W).

        W has the pseudo-vectors as rows; block (i, j) is the transposed
        multiplication matrix of W_ij, on W's numerators.
        """
        d = self.field.degree
        num, t = integer_matrix([[c for x in w for c in x.coords] for _, w in self.pseudo])
        rows: IntMatrix = [[] for _ in range(self.rank * d)]
        for i, w in enumerate(num):
            for j in range(0, len(w), d):
                for r, col in enumerate(transpose(self.field._mult_matrix(w[j:j + d]))):
                    rows[i * d + r].extend(col)
        return rows, t

    @cached_property
    def int_flat(self) -> tuple[IntMatrix, int]:
        """The Z-basis as (N, s): row (i, k) of N / s is alpha_k w_i flattened component-major.

        N / s = blockdiag(C_i) R(W), with C_i the i-th ideal's coordinate matrix.
        """
        d = self.field.degree
        r, t = self.regular
        s = math.lcm(*(a.int_coords[1] for a, _ in self.pseudo))
        rows: IntMatrix = []
        for i, (a, _) in enumerate(self.pseudo):
            c, si = a.int_coords
            rows.extend([x * (s // si) for x in row] for row in mat_mul(c, r[i * d:(i + 1) * d]))
        return rows, s * t

    @cached_property
    def flat(self) -> Matrix:
        """`int_flat` as rational coordinate rows, for readers of the coordinates."""
        rows, s = self.int_flat
        return [[Fraction(x, s) for x in row] for row in rows]

    def pairing(self, other: "KModule") -> tuple[IntMatrix, int]:
        """sum_k Tr(x_k y_k) over the Z-bases, N / s = flat (I_n (x) P) other.flat^t, as (N, s)."""
        d = self.field.degree
        p = self.field.trace_form
        a, s = self.int_flat
        b, t = other.int_flat
        other_p = [[x for k in range(0, len(y), d) for x in mat_vec(p, y[k:k + d])] for y in b]
        return mat_mul(a, transpose(other_p)), s * t

    def equals(self, other: "KModule") -> bool:
        if self.rank != other.rank or not self.field.same_presentation(other.field):
            return False
        return is_unimodular_ratio(self.int_flat, other.int_flat)

    def trace_dual(self) -> "KModule":
        """Dual module under the pairing sum Tr(x_k y_k), two routes cross-checked."""
        field, n, d = self.field, self.rank, self.field.degree
        # row i of W^-1 is the v with v W = e_i, that is flatten(v) R(W) = e_(id):
        # column i of y / q below is flatten(v), from N^t y = q t E for R(W) = N / t
        r, t = self.regular
        y, q = solve_scaled(transpose(r), [[t * (row == i * d) for i in range(n)]
                                           for row in range(n * d)])
        # the rows of (W^-1)^t pair to delta_ij with the rows of W; the j-th
        # row is the j-th component of every row of W^-1, the j-th block of y
        wstar = [tuple(field.element([Fraction(v, q) for v in col])
                       for col in transpose(y[j * d:(j + 1) * d])) for j in range(n)]
        # module_from_matrix and standard_module share one ideal across the pairs
        duals = {a: a.trace_dual() for a in dict.fromkeys(a for a, _ in self.pseudo)}
        # (W^-1)^t is invertible, so the dual's vectors need no independence test
        dual = KModule._known(field, [(duals[a], w) for (a, _), w in zip(self.pseudo, wstar)])
        # second route: dual's Z-basis spans the lattice dual to ours (the
        # span of G^-1 z, G the Gram matrix) iff their pairings are unimodular
        if not is_unimodular(*dual.pairing(self)):
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
