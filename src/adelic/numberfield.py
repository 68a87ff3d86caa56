"""Number fields with exact power-basis arithmetic and archimedean embeddings.

A field is Q[x]/(f) for a monic squarefree integer polynomial f.  Elements
carry exact rational coordinates over the power basis; traces, Gram
matrices and discriminants are computed without floating point, the
reduction table and trace form as integers.  Floats only enter through
the root isolation that backs the embeddings.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ConditioningError
from .exactla import (
    IntMatrix,
    Matrix,
    integer_matrix,
    mat_det,
    mat_mul,
    mat_solve,
    mat_vec,
    solve_scaled,
    transpose,
)

# ---------------------------------------------------------------------------
# polynomial helpers (coefficient lists, ascending degree, Fraction entries)


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _deg(p: list[Fraction]) -> int:
    return len(p) - 1


def _deriv(p: list[Fraction]) -> list[Fraction]:
    return [k * c for k, c in enumerate(p)][1:]


def _divmod(a: list[Fraction], b: list[Fraction]):
    a = a[:]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv = Fraction(1) / b[-1]
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        f = a[-1] * inv
        q[shift] = f
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
    return _trim(q), _trim(a)


def _gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(a[:]), _trim(b[:])
    while b:
        _, r = _divmod(a, b)
        a, b = b, r
        if a:
            lead = a[-1]
            a = [c / lead for c in a]
    return a


def _eval_complex(p: Sequence[float], z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


def _sign_changes(signs: list[int]) -> int:
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def count_real_roots(poly: Sequence[Fraction]) -> int:
    """Number of distinct real roots, by a Sturm chain evaluated at +-inf."""
    p = _trim([Fraction(c) for c in poly])
    if _deg(p) < 1:
        return 0
    chain = [p, _trim(_deriv(p))]
    while _deg(chain[-1]) > 0:
        _, r = _divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    at_pos = [1 if q[-1] > 0 else -1 for q in chain if q]
    at_neg = [
        (1 if q[-1] > 0 else -1) * (1 if _deg(q) % 2 == 0 else -1)
        for q in chain
        if q
    ]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def _aberth_roots(poly: list[float], target: float, max_iter: int = 400) -> list[complex]:
    """All complex roots of a monic squarefree polynomial, simultaneously."""
    d = len(poly) - 1
    dpoly = [k * c for k, c in enumerate(poly)][1:]
    radius = 1.0 + max(abs(c) for c in poly[:-1]) if d > 0 else 1.0
    z = [
        radius * cmath.exp(2j * math.pi * (k / d) + 0.4j) * (1 + 1e-3 * k)
        for k in range(d)
    ]
    for _ in range(max_iter):
        moved = 0.0
        for i in range(d):
            pv = _eval_complex(poly, z[i])
            dv = _eval_complex(dpoly, z[i])
            if dv == 0:
                z[i] += 1e-6 + 1e-6j
                moved = math.inf
                continue
            newton = pv / dv
            s = sum(1 / (z[i] - z[j]) for j in range(d) if j != i)
            denom = 1 - newton * s
            step = newton / denom if denom != 0 else newton
            z[i] -= step
            moved = max(moved, abs(step))
        if moved < target:
            break
    return z


def _newton_polish(poly: list[float], dpoly: list[float], z, steps: int = 6):
    for _ in range(steps):
        dv = _eval_complex(dpoly, z)
        if dv == 0:
            break
        z = z - _eval_complex(poly, z) / dv
    return z


# ---------------------------------------------------------------------------


def _coerced(op):
    """A binary operator of `FieldElement`, its other operand coerced into the field."""
    def method(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else op(self, o)
    return method


class FieldElement:
    """Element of a number field, exact coordinates over the power basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "NumberField", coords: Sequence[Fraction]):
        if len(coords) != field.degree:
            raise ValueError("coordinate length does not match field degree")
        self.field = field
        self.coords = tuple(Fraction(c) for c in coords)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(Fraction(other))
        return None

    @_coerced
    def __add__(self, o):
        return FieldElement(self.field, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    @_coerced
    def __sub__(self, o):
        return FieldElement(self.field, [a - b for a, b in zip(self.coords, o.coords)])

    @_coerced
    def __rsub__(self, o):
        return o - self

    @_coerced
    def __mul__(self, o):
        return FieldElement(self.field, mat_vec(self.field._mult_matrix(self.coords), o.coords))

    __rmul__ = __mul__

    @_coerced
    def __truediv__(self, o):
        return self * o.inverse()

    @_coerced
    def __rtruediv__(self, o):
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        acc = self.field.one()
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    @_coerced
    def __eq__(self, o):
        return self.coords == o.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        m = self.field._mult_matrix(self.coords)
        e1 = [[int(i == 0)] for i in range(self.field.degree)]
        return FieldElement(self.field, [row[0] for row in mat_solve(m, e1)])

    def trace(self) -> Fraction:
        m = self.field._mult_matrix(self.coords)
        return sum((m[i][i] for i in range(self.field.degree)), Fraction(0))

    def norm(self) -> Fraction:
        return mat_det(self.field._mult_matrix(self.coords))

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"


class NumberField:
    """Q[x]/(f) with a validated integral basis and ordered real/complex places."""

    def __init__(
        self,
        poly: Sequence[int],
        integral_basis: Sequence[Sequence[Fraction]],
        claimed_discriminant: int | None = None,
        name: str | None = None,
        cm_asserted: bool = False,
        precision_bits: int = 53,
    ):
        coeffs = [Fraction(c) for c in poly]
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree at least 1")
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("polynomial must have integer coefficients")
        g = _gcd(coeffs, _deriv(coeffs))
        if _deg(g) > 0:
            raise ValueError("polynomial must be squarefree")
        self.poly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self.name = name

        # reduction table: integer coords of theta^k for k = d .. 2d-2
        d = self.degree
        self._reduction: list[tuple[int, ...]] = []
        cur = [-c.numerator for c in coeffs[:-1]]
        self._reduction.append(tuple(cur))
        for _ in range(d - 2):
            cur = [0] + cur
            top = cur.pop()
            cur = [c + top * r for c, r in zip(cur, self._reduction[0])]
            self._reduction.append(tuple(cur))

        basis = [[Fraction(c) for c in row] for row in integral_basis]
        if len(basis) != d or any(len(row) != d for row in basis):
            raise ValueError("integral basis must consist of degree many vectors")
        self.basis_matrix: Matrix = basis
        if mat_det(basis) == 0:
            raise ValueError("integral basis is linearly dependent")
        num, t = integer_matrix(basis)
        # 1 = x B for B = N / t is N^t x = t e_0
        if solve_scaled(transpose(num), [[t * (r == 0)] for r in range(d)])[1] != 1:
            raise ValueError("integral basis does not contain 1")
        if self._actions(num) is None:
            raise ValueError("integral basis is not closed under multiplication")

        # Tr(theta^k) for k < d from the multiplication matrices, then for
        # d <= k <= 2d-2 through the reduction table theta^k = sum r_j theta^j
        units = [[int(i == j) for i in range(d)] for j in range(d)]
        low = [sum(m[i][i] for i in range(d)) for m in map(self._mult_matrix, units)]
        powers = low + [sum(r * p for r, p in zip(red, low)) for red in self._reduction[:d - 1]]
        self.trace_form: IntMatrix = [[powers[i + j] for j in range(d)] for i in range(d)]
        # B P B^t on B's numerators
        gram = mat_mul(mat_mul(num, self.trace_form), transpose(num))
        if any(x % (t * t) for row in gram for x in row):
            raise ValueError("trace pairings of the integral basis are not integers")
        self.trace_gram: IntMatrix = [[x // (t * t) for x in row] for row in gram]
        self.discriminant = int(mat_det(self.trace_gram))
        if claimed_discriminant is not None and claimed_discriminant != self.discriminant:
            raise ValueError(
                f"claimed discriminant {claimed_discriminant} "
                f"differs from computed {self.discriminant}"
            )

        r = count_real_roots(list(self.poly))
        if (d - r) % 2 != 0:
            raise ConditioningError("real root count inconsistent with degree")
        self.signature = (r, (d - r) // 2)
        if cm_asserted and r != 0:
            raise ValueError("a CM field has no real embeddings")
        self.cm_asserted = cm_asserted

        self.precision_bits = precision_bits
        self.real_roots: list[float]
        self.complex_roots: list[complex]
        self._compute_roots()

    # -- construction helpers ------------------------------------------------

    def element(self, coords: Sequence[Fraction]) -> FieldElement:
        return FieldElement(self, coords)

    def from_rational(self, q) -> FieldElement:
        return self.element([Fraction(q)] + [Fraction(0)] * (self.degree - 1))

    def zero(self) -> FieldElement:
        return self.from_rational(0)

    def one(self) -> FieldElement:
        return self.from_rational(1)

    def theta(self) -> FieldElement:
        if self.degree == 1:
            return self.from_rational(-self.poly[0])
        return self.element([0, 1] + [0] * (self.degree - 2))

    # -- exact arithmetic core -----------------------------------------------

    def _mult_matrix(self, coords: Sequence[Fraction]) -> Matrix:
        # column j = coords of x * theta^j; integers for integer coords
        d = self.degree
        cols = []
        cur = list(coords)
        cols.append(cur[:])
        for _ in range(d - 1):
            cur = [0] + cur
            top = cur.pop()
            if top:
                cur = [c + top * rr for c, rr in zip(cur, self._reduction[0])]
            cols.append(cur[:])
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def _actions(self, num: IntMatrix) -> list[IntMatrix] | None:
        """Per integral-basis element b, A_b with b * (row j of N) = sum_l A_b[j][l] (row l of N).

        A_b solves N^t A_b^t = M_b N^t, M_b the multiplication matrix;
        one solve gives all d.  None unless all are integral (O-stable).
        """
        d = self.degree
        nt = transpose(num)
        basis, t = integer_matrix(self.basis_matrix)  # b = row / t
        products = [mat_mul(self._mult_matrix(b), nt) for b in basis]
        y, q = solve_scaled(nt, [[x for m in products for x in m[r]] for r in range(d)])
        if any(v % (q * t) for row in y for v in row):
            return None
        return [transpose([[v // (q * t) for v in row[k * d:(k + 1) * d]] for row in y])
                for k in range(d)]

    def same_presentation(self, other: "NumberField") -> bool:
        """Same defining polynomial and same integral basis.

        Element coordinates are interchangeable exactly when this holds,
        so comparison predicates accept it in place of object identity.
        """
        return self is other or (
            self.poly == other.poly and self.basis_matrix == other.basis_matrix)

    # -- archimedean places --------------------------------------------------

    @property
    def is_totally_real(self) -> bool:
        return self.signature[1] == 0

    @property
    def is_cm(self) -> bool:
        r, _ = self.signature
        if r != 0:
            return False
        return self.degree == 2 or self.cm_asserted

    def _compute_roots(self):
        d = self.degree
        fpoly = [float(c) for c in self.poly]
        r, s = self.signature
        if d == 1:
            self.real_roots = [-fpoly[0]]
            self.complex_roots = []
            return
        target = max(2.0 ** (-self.precision_bits), 1e-15)
        roots = _aberth_roots(fpoly, target)
        dpoly = [k * c for k, c in enumerate(fpoly)][1:]
        roots = [_newton_polish(fpoly, dpoly, z) for z in roots]
        roots.sort(key=lambda z: abs(z.imag))
        reals = []
        for z in roots[:r]:
            x = _newton_polish(fpoly, dpoly, complex(z.real, 0.0)).real
            reals.append(x)
        complexes = [z for z in roots[r:] if z.imag > 0]
        if len(complexes) != s:
            raise ConditioningError("root classification disagrees with signature")
        residual_tol = 1e-12 * (1 + max(abs(c) for c in fpoly))
        for z in reals:
            if abs(_eval_complex(fpoly, complex(z, 0.0))) > residual_tol:
                raise ConditioningError("real root residual too large")
        for z in complexes:
            if abs(_eval_complex(fpoly, z)) > residual_tol:
                raise ConditioningError("complex root residual too large")
        reals.sort()
        complexes.sort(key=lambda z: (z.real, z.imag))
        self.real_roots = reals
        self.complex_roots = complexes

    @property
    def places(self) -> list[tuple[str, complex]]:
        """Ordered archimedean places: real ascending, then complex by (Re, Im)."""
        out: list[tuple[str, complex]] = [("real", complex(x, 0)) for x in self.real_roots]
        out.extend(("complex", z) for z in self.complex_roots)
        return out

    def place_dims(self, n: int) -> list[int]:
        """Block sizes of the place-major layout of R^(n*degree)."""
        r, s = self.signature
        return [n] * r + [2 * n] * s

    def place_slices(self, n: int) -> list[tuple[str, int, int]]:
        out, start = [], 0
        for (kind, _), dim in zip(self.places, self.place_dims(n)):
            out.append((kind, start, start + dim))
            start += dim
        return out

    def embed(self, x: FieldElement, conjugated: bool = False) -> np.ndarray:
        """Coordinates of x across all places: reals, then (Re, Im) pairs."""
        return self._embed_coords([float(c) for c in x.coords], conjugated)

    def _embed_coords(self, coords: Sequence[float], conjugated: bool) -> np.ndarray:
        """`embed` of the element with these float coordinates, by Horner at each root."""
        def at(root: complex) -> complex:
            acc = 0j
            for c in reversed(coords):
                acc = acc * root + c
            return acc

        out = np.empty(self.degree)
        for i, root in enumerate(self.real_roots):
            out[i] = at(complex(root, 0)).real
        r = len(self.real_roots)
        sign = -1.0 if conjugated else 1.0
        for j, root in enumerate(self.complex_roots):
            v = at(root)
            out[r + 2 * j] = v.real
            out[r + 2 * j + 1] = sign * v.imag
        return out

    def embed_vector(self, xs: Sequence[FieldElement], conjugated: bool = False) -> np.ndarray:
        """Place-major embedding of a K-vector into R^(n*degree).

        All coordinates at the first place come first, then the second
        place, and so on; complex places contribute (Re, Im) per entry.
        """
        return self.embed_flat([float(c) for x in xs for c in x.coords], conjugated)

    def embed_flat(self, flat: Sequence[float], conjugated: bool = False) -> np.ndarray:
        """`embed_vector` of the K-vector whose flattened coordinates are these floats."""
        r, s = self.signature
        d = self.degree
        e = np.array([self._embed_coords(flat[k:k + d], conjugated)
                      for k in range(0, len(flat), d)])
        pairs = e[:, r:].reshape(len(e), s, 2).transpose(1, 0, 2)
        return np.concatenate([e[:, :r].T.ravel(), pairs.ravel()])

    def twisted_form_diag(self, n: int) -> np.ndarray:
        """Diagonal of the scalar product twisted by 2 at complex places."""
        r, s = self.signature
        return np.concatenate([np.ones(n * r), 2.0 * np.ones(2 * n * s)])

    def __repr__(self):
        label = self.name or f"deg{self.degree}"
        return f"NumberField({label}, disc={self.discriminant})"


# ---------------------------------------------------------------------------
# presets


def rational_field(precision_bits: int = 53) -> NumberField:
    return NumberField([-1, 1], [[1]], claimed_discriminant=1, name="Q",
                       precision_bits=precision_bits)


def quadratic_field(m: int, precision_bits: int = 53) -> NumberField:
    """Q(sqrt(m)) for squarefree m != 0, 1, with its maximal order."""
    if m in (0, 1):
        raise ValueError("m must be a squarefree integer other than 0 and 1")
    k = 2
    while k * k <= abs(m):
        if m % (k * k) == 0:
            raise ValueError("m must be squarefree")
        k += 1
    name = f"Q_sqrt{m}" if m > 0 else f"Q_sqrt-{abs(m)}"
    if m % 4 == 1:
        basis = [[Fraction(1), Fraction(0)], [Fraction(1, 2), Fraction(1, 2)]]
        disc = m
    else:
        basis = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        disc = 4 * m
    return NumberField([-m, 0, 1], basis, claimed_discriminant=disc, name=name,
                       precision_bits=precision_bits)


def preset_field(name: str, precision_bits: int = 53) -> NumberField:
    try:
        maker = PRESET_FIELDS[name]
    except KeyError:
        known = ", ".join(sorted(PRESET_FIELDS))
        raise ValueError(f"unknown preset field {name!r} (known: {known})") from None
    field = maker(precision_bits)
    field.name = name
    return field


PRESET_FIELDS = {
    "Q": rational_field,
    "Q_sqrt2": lambda p=53: quadratic_field(2, p),
    "Q_sqrt5": lambda p=53: quadratic_field(5, p),
    "Q_i": lambda p=53: quadratic_field(-1, p),
    "Q_sqrt-3": lambda p=53: quadratic_field(-3, p),
}
