"""Fractional ideals and finitely generated O-modules in K^n.

Modules are carried as pseudo-bases (ideal, vector), after Cohen, GTM
193, ch. 1.  Every rational matrix here is held as integer numerators N
with one scale s (the matrix is N / s): an ideal's coordinates
`int_coords`, the pseudo-vectors `int_vectors`, the regular
representation R(W) over Q of the pseudo-vector matrix W, and the
module's Z-basis `int_flat`, the product blockdiag(C_i) R(W).  A module
is eliminated once, by the solve with R(W)^t that gives the dual's
vectors (W^-1)^t and tests K-independence; the dual's own inverse W^t is
read off once W* W^t = I is checked over K.  The trace dual takes one
dual per distinct ideal, and its second route is its pairing with the
module under the trace form P[i][j] = Tr(theta^(i+j)), built block by
block from W* W^t, which must be unimodular (the identity up to scale,
read off).  Equality holds for identical pseudo-bases and is otherwise
one unimodular-ratio test.  `KRankTracker` reads a lattice point as its
power-basis numerators, its coordinates times the lattice's exact rows,
and takes their images under theta block by block with the integer
companion matrix, so K-rank is decided on Python ints without an
nd x nd matrix and without the pseudo-basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
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
KProducts = tuple[list[list[list[int]]], int]  # (G, s): n x n over K, entries G[i][j] / s


class KRankTracker:
    """Incremental rank over K of lattice points, read on their exact rows.

    A lattice's exact rows (M, s) hold each basis row's K-vector, row i
    of M / s being its flattened power-basis coordinates.  The point
    with coordinates c is the K-vector z / s for z = c M, so z is read
    with one product by the columns of M.  The K-span of z is spanned
    over Q by z, theta z, ..., theta^(d-1) z, each image computed from
    the one before block by block with the integer companion matrix
    M(theta) (n d^2 products, no nd x nd matrix).  One exact
    `RankTracker` holds the Q-span of the K-spans accepted so far: a
    point raises the K-rank exactly when z leaves that span, and then
    its images join it.
    """

    def __init__(self, field: NumberField, rows: tuple[IntMatrix, int]):
        self.degree = d = field.degree
        self.columns = transpose(rows[0])
        self.theta = field._mult_matrix([int(k == 1) for k in range(d)])
        self.span = RankTracker(len(self.columns))

    def try_add(self, coords: Sequence[int]) -> bool:
        if len(coords) != self.span.dim:
            raise ValueError(f"coordinates of length {len(coords)} in a K-rank tracker "
                             f"of dimension {self.span.dim}")
        z = mat_vec(self.columns, coords)
        if not self.span.try_add(z):
            return False
        for _ in range(self.degree - 1):
            z = [x for k in range(0, len(z), self.degree)
                 for x in mat_vec(self.theta, z[k:k + self.degree])]
            self.span.try_add(z)
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
        # R(W) is singular iff the vectors are K-dependent (det R(W) = +-N(det W)),
        # and then the solve that trace_dual needs raises "singular matrix"
        self._inverse

    @classmethod
    def _known(cls, field: NumberField, pseudo: list[tuple[FractionalIdeal, KVector]],
               int_vectors: tuple[IntMatrix, int]) -> "KModule":
        """A module whose pseudo-vectors, with numerators `int_vectors`, are K-independent."""
        module = cls.__new__(cls)
        module.field, module.rank, module.pseudo = field, len(pseudo), pseudo
        module.int_vectors = int_vectors
        return module

    @cached_property
    def int_vectors(self) -> tuple[IntMatrix, int]:
        """W = N / t as (N, t), in lowest terms: row i is the i-th pseudo-vector flattened."""
        return integer_matrix([[c for x in w for c in x.coords] for _, w in self.pseudo])

    @cached_property
    def regular(self) -> tuple[IntMatrix, int]:
        """R(W) = N / t as (N, t): the nd x nd matrix with flatten(x W) = flatten(x) R(W).

        W has the pseudo-vectors as rows; block (i, j) is the transposed
        multiplication matrix of W_ij, on W's numerators.
        """
        d, mult = self.field.degree, self.field._mult_matrix
        num, t = self.int_vectors
        return [[x for part in parts for x in part] for w in num
                for parts in zip(*(transpose(mult(w[j:j + d])) for j in range(0, len(w), d)))], t

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

    def _products(self, other: "KModule") -> KProducts:
        """W V^t over K, V the other's pseudo-vectors: (G, s), g_ij's coordinates G[i][j] / s.

        g_ij = [M(V_j1) ... M(V_jn)] W_i, read off R(V)'s block row j, each block transposed.
        """
        d, n = self.field.degree, self.rank
        (w, s), (r, t) = self.int_vectors, other.regular
        ms = [[[r[j * d + q][k * d + c] for k in range(n) for q in range(d)] for c in range(d)]
              for j in range(n)]
        return [[mat_vec(m, x) for m in ms] for x in w], s * t

    def pairing(self, other: "KModule", products: KProducts | None = None) -> tuple[IntMatrix, int]:
        """sum_k Tr(x_k y_k) on the Z-bases: (A (I_n (x) P) B^t, s t), int_flat (A, s), (B, t).

        alpha w_i and beta v_j pair to Tr(alpha beta g_ij), g = W V^t over K (`products`, or
        `_products(other)`), so block (i, j) is C_i P M(g_ij) D_j^t for the ideals' coordinate
        matrices C_i, D_j: once per distinct (ideal, ideal, g_ij), and no nd x nd product.
        """
        p, mult = self.field.trace_form, self.field._mult_matrix
        g, scale = products or self._products(other)
        ls, lt = (math.lcm(*(a.int_coords[1] for a, _ in m.pseudo)) for m in (self, other))

        @cache
        def block(a: FractionalIdeal, b: FractionalIdeal, x: tuple[int, ...]) -> IntMatrix:
            (na, sa), (nb, sb) = a.int_coords, b.int_coords
            if not any(x):
                return [[0] * len(nb) for _ in na]
            f, m = ls // sa * (lt // sb), mult(x)
            y = [mat_vec(m, row) for row in nb]  # y = N_b M(g)^t; block row r is (P N_a[r]) y^t
            return [[f * v for v in mat_vec(y, mat_vec(p, row))] for row in na]

        rows = [[v for part in parts for v in part] for (a, _), gi in zip(self.pseudo, g)
                for parts in zip(*(block(a, b, tuple(x)) for (b, _), x in zip(other.pseudo, gi)))]
        return rows, ls * lt * scale

    def equals(self, other: "KModule") -> bool:
        if self.rank != other.rank or not self.field.same_presentation(other.field):
            return False
        # identical pseudo-bases span one module; coordinates, not elements, are
        # compared, since the two fields may be distinct objects
        if all(a.int_coords == b.int_coords and [x.coords for x in v] == [x.coords for x in w]
               for (a, v), (b, w) in zip(self.pseudo, other.pseudo)):
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
        """Dual module under sum Tr(x_k y_k): W* = (W^-1)^t, checked by W* W^t = I and a pairing."""
        field, n, d = self.field, self.rank, self.field.degree
        (num, t), (y, q) = self.int_vectors, self._inverse
        # row j of W* = (W^-1)^t is the j-th component of every row of W^-1, block j of y
        rows = [[v for col in transpose(y[j * d:(j + 1) * d]) for v in col] for j in range(n)]
        wstar = [tuple(field.element([Fraction(v, q) for v in row[k:k + d]])
                       for k in range(0, n * d, d)) for row in rows]
        # module_from_matrix and standard_module share one ideal across the pairs
        duals = {a: a.trace_dual() for a in dict.fromkeys(a for a, _ in self.pseudo)}
        # W* is invertible, so needs no independence test; (rows, q) is in lowest terms
        dual = KModule._known(field, [(duals[a], w) for (a, _), w in zip(self.pseudo, wstar)],
                              (rows, q))
        # W* W^t = I over K, checked exactly, proves (W*)^-1 = W^t; second route: the
        # dual's Z-basis spans the lattice dual to ours iff their pairings are unimodular
        g, scale = products = dual._products(self)
        eye = [[[scale * (i == j and not c) for c in range(d)] for j in range(n)] for i in range(n)]
        if g != eye or not is_unimodular(*dual.pairing(self, products)):
            raise ConditioningError("trace dual routes disagree")
        # column i of (W*)^-1 = W^t is column i of W flattened, in lowest terms as solved
        dual._inverse = ([w[c::d] for w in num for c in range(d)], t)
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
