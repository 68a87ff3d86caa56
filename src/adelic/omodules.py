"""Fractional ideals and finitely generated O-modules in K^n.

Modules are pseudo-bases (ideal, vector), after Cohen, GTM 193, ch. 1,
held as their `ideals` and vectors' numerators; the element pairs
`pseudo` are a view built on first read.  Every rational matrix here is
integer numerators N over one scale s, in lowest terms: an ideal's
coordinates `int_coords`, the pseudo-vectors `int_vectors`, the regular
representation R(W) over Q of the pseudo-vector matrix W, and the
module's Z-basis `int_flat`, the product blockdiag(C_i) R(W).  A module
is eliminated once, by the solve with R(W)^t that gives the dual's
vectors (W^-1)^t, as numerators, and tests K-independence.  The trace
dual takes one dual per distinct ideal and is certified on its two
parts: the vectors, W*^t W = I on R(W), which also gives the dual's own
inverse W^t; and the ideals, each dual ideal's Z-basis pairing
unimodularly with its ideal's under P[i][j] = Tr(theta^(i+j)), which
also makes the ideal its dual's dual.  The two modules' Z-bases then
pair block-diagonally with these d x d blocks.  Equality holds for
equal numerators (canonical) and is otherwise one unimodular-ratio test.
Multiplication by theta is one shift per d-block
(`NumberField.theta_images`): the rows of R(W) are the theta-images of
W's rows, and `KRankTracker` reads a lattice point as its power-basis
numerators, its coordinates times the lattice's exact rows, and spans
their K-span by the same images, so K-rank is decided on Python ints
without an nd x nd matrix and without the pseudo-basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import ConditioningError
from .exactla import (
    IntMatrix,
    RankTracker,
    integer_matrix,
    is_unimodular,
    is_unimodular_ratio,
    mat_mul,
    mat_vec,
    solve_scaled,
    transpose,
)
from .numberfield import FieldElement, NumberField

KVector = tuple[FieldElement, ...]


class KRankTracker:
    """Incremental rank over K of lattice points, read on their exact rows.

    A lattice's exact rows (M, s) hold each basis row's K-vector, row i
    of M / s being its flattened power-basis coordinates.  The point
    with coordinates c is the K-vector z / s for z = c M, so z is read
    with one product by the columns of M.  The K-span of z is spanned
    over Q by z, theta z, ..., theta^(d-1) z (`NumberField.theta_images`,
    one shift per d-block, no nd x nd matrix).  One exact `RankTracker`
    holds the Q-span of the K-spans accepted so far: a point raises the
    K-rank exactly when z leaves that span, and then its images join it.
    """

    def __init__(self, field: NumberField, rows: tuple[IntMatrix, int]):
        self.field = field
        self.columns = transpose(rows[0])
        self.span = RankTracker(len(self.columns))

    def try_add(self, coords: Sequence[int]) -> bool:
        if len(coords) != self.span.dim:
            raise ValueError(f"coordinates of length {len(coords)} in a K-rank tracker "
                             f"of dimension {self.span.dim}")
        z = mat_vec(self.columns, coords)
        if not self.span.try_add(z):
            return False
        for image in self.field.theta_images(z)[1:]:
            self.span.try_add(image)
        return True

    @property
    def rank(self) -> int:
        return self.span.rank // self.field.degree


# ---------------------------------------------------------------------------


class FractionalIdeal:
    """Nonzero fractional ideal of O, held as the exact Z-basis `int_coords`.

    That is (N, s): the basis coordinates over the power basis are N / s.
    """

    def __init__(self, field: NumberField, zbasis: Sequence[FieldElement]):
        if len(zbasis) != field.degree:
            raise ValueError("ideal basis must have one generator per degree")
        self.field = field
        self.int_coords = integer_matrix([b.coords for b in zbasis])
        try:
            _, stable = field._ring_stable(self.int_coords[0])
        except ValueError:
            raise ValueError("ideal basis is linearly dependent") from None
        if not stable:
            raise ValueError("ideal basis is not stable under the ring")

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

    def equals(self, other: "FractionalIdeal") -> bool:
        if not self.field.same_presentation(other.field):
            return False
        return is_unimodular_ratio(self.int_coords, other.int_coords)

    def scaled(self, x: FieldElement) -> "FractionalIdeal":
        if x.is_zero():
            raise ValueError("cannot scale an ideal by zero")
        return FractionalIdeal(self.field, [x * b for b in self.zbasis])

    def trace_dual(self) -> "FractionalIdeal":
        """The complementary ideal, all y with Tr(y * a) integral here; once per object."""
        return self._dual

    def pairing(self, other: "FractionalIdeal") -> tuple[IntMatrix, int]:
        """Tr(x y) over the two Z-bases: (N P M^t, s t) for `int_coords` (N, s) and (M, t)."""
        (n, s), (m, t) = self.int_coords, other.int_coords
        return mat_mul(mat_mul(n, self.field.trace_form), transpose(m)), s * t

    @cached_property
    def _dual(self) -> "FractionalIdeal":
        """The complementary ideal, verified; it knows this ideal as its own dual.

        For the coordinate matrix C = N / s the dual basis is (C P C^t)^-1 C =
        Y / q, from (N P N^t) Y = q s N.  The pairings Tr(u * a) of the two
        Z-bases form the identity, and Tr(a * u) = Tr(u * a), so the one
        check certifies each ideal as the other's dual.
        """
        n, s = self.int_coords
        y, q = solve_scaled(self.pairing(self)[0], [[s * x for x in row] for row in n])
        # the complementary ideal of an O-ideal is an O-ideal
        dual = FractionalIdeal._known(self.field, (y, q))
        if not is_unimodular(*dual.pairing(self)):
            raise ConditioningError("ideal trace dual failed verification")
        dual._dual = self
        return dual

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
        self.pseudo = [(a, tuple(w)) for a, w in pseudo]  # seeds the view
        self.ideals = [a for a, _ in self.pseudo]
        for a, w in self.pseudo:
            if a.field is not field:
                raise ValueError("ideal belongs to a different field")
            if len(w) != self.rank:
                raise ValueError("pseudo-basis vectors must have length equal to the rank")
        # R(W) is singular iff the vectors are K-dependent (det R(W) = +-N(det W)),
        # and then the solve that trace_dual needs raises "singular matrix"
        self._inverse

    @classmethod
    def _known(cls, field: NumberField, ideals: list[FractionalIdeal],
               int_vectors: tuple[IntMatrix, int]) -> "KModule":
        """A module whose pseudo-vectors, `int_vectors` in lowest terms, are K-independent."""
        module = cls.__new__(cls)
        module.field, module.rank, module.ideals = field, len(ideals), ideals
        module.int_vectors = int_vectors
        return module

    @cached_property
    def pseudo(self) -> list[tuple[FractionalIdeal, KVector]]:
        """(ideal, vector) pairs: the elements given, else a view of `int_vectors` on first read."""
        (num, t), d = self.int_vectors, self.field.degree
        return [(a, tuple(self.field.element([Fraction(v, t) for v in row[k:k + d]])
                          for k in range(0, len(row), d))) for a, row in zip(self.ideals, num)]

    @cached_property
    def int_vectors(self) -> tuple[IntMatrix, int]:
        """W = N / t as (N, t), in lowest terms: row i is the i-th pseudo-vector flattened."""
        return integer_matrix([[c for x in w for c in x.coords] for _, w in self.pseudo])

    @cached_property
    def regular(self) -> tuple[IntMatrix, int]:
        """R(W) = N / t as (N, t): the nd x nd matrix with flatten(x W) = flatten(x) R(W).

        W has the pseudo-vectors w_i as rows, and flatten(x W) sums
        x_ik flatten(theta^k w_i): row id + k is theta^k w_i, on W's numerators.
        """
        num, t = self.int_vectors
        return [image for w in num for image in self.field.theta_images(w)], t

    @cached_property
    def int_flat(self) -> tuple[IntMatrix, int]:
        """The Z-basis as (N, s): row (i, k) of N / s is alpha_k w_i flattened component-major.

        N / s = blockdiag(C_i) R(W), with C_i the i-th ideal's coordinate matrix.
        """
        d = self.field.degree
        r, t = self.regular
        s = math.lcm(*(a.int_coords[1] for a in self.ideals))
        rows: IntMatrix = []
        for i, a in enumerate(self.ideals):
            c, si = a.int_coords
            rows.extend([x * (s // si) for x in row] for row in mat_mul(c, r[i * d:(i + 1) * d]))
        return rows, s * t

    def equals(self, other: "KModule") -> bool:
        """One module: equal numerators, canonical in lowest terms, or a unimodular ratio."""
        if self.rank != other.rank or not self.field.same_presentation(other.field):
            return False
        if (self.int_vectors == other.int_vectors
                and [a.int_coords for a in self.ideals] == [b.int_coords for b in other.ideals]):
            return True
        return is_unimodular_ratio(self.int_flat, other.int_flat)

    @cached_property
    def _inverse(self) -> tuple[IntMatrix, int]:
        """W^-1 as (Y, q): column i of Y / q is row i of W^-1 flattened, in lowest terms.

        Row i of W^-1 is the v with v W = e_i, that is flatten(v) R(W) =
        e_(id), so Y comes from one solve N^t Y = q t E for R(W) = N / t.
        """
        n, d = self.rank, self.field.degree
        r, t = self.regular
        return solve_scaled(transpose(r), [[t * (row == i * d) for i in range(n)]
                                           for row in range(n * d)])

    def trace_dual(self) -> "KModule":
        """Dual module under sum Tr(x_k y_k): W* = (W^-1)^t, checked on its vectors and ideals."""
        field, n, d = self.field, self.rank, self.field.degree
        (num, t), (y, q) = self.int_vectors, self._inverse
        # row j of W* = (W^-1)^t is the j-th component of every row of W^-1, block j of y
        rows = [[v for col in transpose(y[j * d:(j + 1) * d]) for v in col] for j in range(n)]
        # module_from_matrix and standard_module share one ideal across the pairs
        duals = {a: a.trace_dual() for a in dict.fromkeys(self.ideals)}
        # the vectors: column i of W*, flattened, times R(W) is e_(id), so W*^t W = I over K
        # and (W*)^-1 = W^t; the ideals: each dual pairs unimodularly with its ideal, and the
        # two Z-bases' pairing is block-diagonal with these blocks
        cols = [[v for row in rows for v in row[i * d:(i + 1) * d]] for i in range(n)]
        eye = [[q * t * (c == i * d) for c in range(n * d)] for i in range(n)]
        if (mat_mul(cols, self.regular[0]) != eye
                or not all(is_unimodular(*b.pairing(a)) for a, b in duals.items())):
            raise ConditioningError("trace dual routes disagree")
        # W* is invertible, so needs no independence test; (rows, q) is in lowest terms
        dual = KModule._known(field, [duals[a] for a in self.ideals], (rows, q))
        # column i of (W*)^-1 = W^t is column i of W flattened, in lowest terms as solved
        dual._inverse = ([w[c::d] for w in num for c in range(d)], t)
        return dual

    def __repr__(self):
        return f"KModule(rank={self.rank}, field={self.field!r})"


def standard_module(field: NumberField, n: int) -> KModule:
    """O^n with the obvious pseudo-basis: the module of the identity matrix."""
    return module_from_matrix(field, [[field.from_rational(int(i == j)) for j in range(n)]
                                      for i in range(n)])


def module_from_matrix(field: NumberField, a: list[list[FieldElement]]) -> KModule:
    """The module A * O^n, generated over O by the columns of A."""
    ring = FractionalIdeal.whole_ring(field)
    return KModule(field, [(ring, tuple(col)) for col in transpose(a)])
