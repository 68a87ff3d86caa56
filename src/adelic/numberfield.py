"""Number fields with exact power-basis arithmetic and archimedean embeddings.

A field is Q[x]/(f) for a monic squarefree integer polynomial f.  Elements
carry exact rational coordinates over the power basis.  One integer table
decides the field: the trace form P[i][j] = Tr(theta^(i+j)), the power
sums of the roots (Newton's identities).  det P is nonzero exactly when f
is squarefree, and the signature of P counts the real places (Hermite's
theorem).  The integral basis is validated by one solve with its
transposed numerators: the elimination decides independence, and the
right-hand sides 1 and the products of basis elements decide that 1 is
in the span and that the span is a ring.  Floats only enter through the
root isolation that backs the embeddings.

The field, its elements and its roots are pure Python.  numpy is named
through `np`, a `LazyModule`: importing this module loads no numpy, and
the first embedding or twisted form does.
"""

from __future__ import annotations

import cmath
import importlib
import math
import operator
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from .errors import ConditioningError
from .exactla import (
    IntMatrix,
    Matrix,
    integer_matrix,
    mat_det,
    mat_mul,
    mat_vec,
    solve_scaled,
    transpose,
)

ROOT_TOL = 1e-15  # the Aberth stopping step; float64 roots saturate here


class LazyModule:
    """A module imported on the first read of one of its attributes.

    Each attribute read is kept on the instance, so from its second read
    on it costs what a module attribute costs.
    """

    def __init__(self, name: str):
        self._name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._name), attr)
        setattr(self, attr, value)
        return value


np = LazyModule("numpy")  # the float side of fields and bodies


def float_of(x: Fraction, what: str, bound: float = sys.float_info.max) -> float:
    """x as a float; a `ConditioningError` naming x unless x = 0 or 1 / bound <= |x| <= bound."""
    if x and not 1 / bound <= abs(x) <= bound:
        raise ConditioningError(f"{what} {Decimal(x.numerator) / x.denominator:.3e} "
                                "is outside the float range")
    return float(x)


# ---------------------------------------------------------------------------
# polynomial helpers


def _eval_complex(p: Sequence[float], z: complex) -> complex:
    acc = 0j
    for c in reversed(p):
        acc = acc * z + c
    return acc


def _is_float_root(p: Sequence[float], z: complex) -> bool:
    """Whether Horner's residual at z is within 4 d eps of sum |p_k| |z|^k.

    Horner's rule returns p(z) within gamma_2d, about d eps, of the sum
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 5.1), and
    complex products (sqrt(2) gamma_2 each, 3.6) at most double that.
    Rounding the root and the coefficients to floats adds (d + 1) u.  So
    a root as accurate as float64 allows leaves under 3 d eps of the sum,
    and c = 4 adds a margin; a wrong root leaves the sum's own order.
    """
    d = len(p) - 1
    scale = sum(abs(c) * abs(z) ** k for k, c in enumerate(p))
    return abs(_eval_complex(p, z)) <= 4 * d * sys.float_info.epsilon * scale


def _power_sums(poly: Sequence[int], count: int) -> list[int]:
    """Tr(theta^k) for k < count, the power sums of the roots of poly.

    Newton's identities on f = x^d + a_(d-1) x^(d-1) + ... + a_0:
    p_0 = d and p_k = -k a_(d-k) [k <= d] - sum_(i=1..min(k-1,d)) a_(d-i) p_(k-i).
    """
    d = len(poly) - 1
    p = [d]
    for k in range(1, count):
        p.append((-k * poly[d - k] if k <= d else 0)
                 - sum(poly[d - i] * p[k - i] for i in range(1, min(k - 1, d) + 1)))
    return p


def _charpoly(a: IntMatrix) -> list[int]:
    """det(xI - A) of an integer matrix, ascending, by Faddeev-LeVerrier.

    With M_1 = I: c_(d-k) = -Tr(A M_k) / k, each division exact, and M_(k+1) = A M_k + c_(d-k) I.
    """
    d = len(a)
    c = [0] * d + [1]
    m = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        am = mat_mul(a, m)
        c[d - k] = -sum(am[i][i] for i in range(d)) // k
        m = [[x + c[d - k] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am)]
    return c


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
        self.coords = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)

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

    def __eq__(self, other):
        # never raises: elements over another polynomial are simply unequal
        if isinstance(other, FieldElement):
            return self.field.poly == other.field.poly and self.coords == other.coords
        o = self._coerce(other)
        return NotImplemented if o is None else self.coords == o.coords

    def __hash__(self):
        # a rational element equals, so hashes as, the Fraction it holds
        if not any(self.coords[1:]):
            return hash(self.coords[0])
        return hash((self.field.poly, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        num, s = integer_matrix(self.field._mult_matrix(self.coords))
        # x = M^-1 e_0 is N x = s e_0 for M = N / s
        y, q = solve_scaled(num, [[s * (i == 0)] for i in range(self.field.degree)])
        return FieldElement(self.field, [Fraction(row[0], q) for row in y])

    def trace(self) -> Fraction:
        # Tr(sum_j c_j theta^j) = sum_j c_j P[0][j]
        return sum(map(operator.mul, self.coords, self.field.trace_form[0]), Fraction(0))

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
    ):
        coeffs = [Fraction(c) for c in poly]
        if len(coeffs) < 2:
            raise ValueError("polynomial must have degree at least 1")
        if coeffs[-1] != 1:
            raise ValueError("polynomial must be monic")
        if any(c.denominator != 1 for c in coeffs):
            raise ValueError("polynomial must have integer coefficients")
        self.poly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        self.name = name

        # P[i][j] = Tr(theta^(i+j)); det P is the discriminant of f, zero
        # exactly at a repeated root, and (-1)^d det P is charpoly's constant term
        d = self.degree
        a = [c.numerator for c in coeffs]
        self._theta_d = tuple(-c for c in a[:-1])  # theta^d = sum_j -a_j theta^j
        powers = _power_sums(a, 2 * d - 1)
        self.trace_form: IntMatrix = [[powers[i + j] for j in range(d)] for i in range(d)]
        charpoly = _charpoly(self.trace_form)
        if charpoly[0] == 0:
            raise ValueError("polynomial must be squarefree")

        basis = [[Fraction(c) for c in row] for row in integral_basis]
        if len(basis) != d or any(len(row) != d for row in basis):
            raise ValueError("integral basis must consist of degree many vectors")
        self.basis_matrix: Matrix = basis
        num, t = integer_matrix(basis)
        # one solve with N^t decides all three: 1 = x B for B = N / t is N^t x = t e_0
        try:
            has_one, closed = self._ring_stable(num, [t * (r == 0) for r in range(d)])
        except ValueError:
            raise ValueError("integral basis is linearly dependent") from None
        if not has_one:
            raise ValueError("integral basis does not contain 1")
        if not closed:
            raise ValueError("integral basis is not closed under multiplication")

        # B P B^t on B's numerators, integral: the basis spans an order
        gram = mat_mul(mat_mul(num, self.trace_form), transpose(num))
        self.trace_gram: IntMatrix = [[x // (t * t) for x in row] for row in gram]
        self.discriminant = int(mat_det(self.trace_gram))
        if claimed_discriminant is not None and claimed_discriminant != self.discriminant:
            raise ValueError(
                f"claimed discriminant {claimed_discriminant} "
                f"differs from computed {self.discriminant}"
            )

        # Hermite: P has pos - neg = r, the number of real roots.  P is
        # symmetric, so its eigenvalues are real and none is zero, and
        # Descartes' rule counts the positive ones exactly
        signs = [c > 0 for c in charpoly if c]
        pos = sum(x != y for x, y in zip(signs, signs[1:]))
        r = 2 * pos - d
        self.signature = (r, d - pos)
        if cm_asserted and r != 0:
            raise ValueError("a CM field has no real embeddings")
        self.cm_asserted = cm_asserted

        self.real_roots, self.complex_roots = self._roots()

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
                cur = [c + top * rr for c, rr in zip(cur, self._theta_d)]
            cols.append(cur[:])
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def _ring_stable(self, num: IntMatrix, lead: Sequence[int] = ()) -> tuple[bool, bool]:
        """Whether the Z-span of the rows of N is stable under the integral basis.

        Each basis element b must map row j of N to an integer combination
        A_b[j] of the rows: N^t A_b^t = M_b N^t, M_b the multiplication
        matrix.  One solve covers all d, and its elimination is the test
        that N is nonsingular: it raises `ValueError` otherwise.  A `lead`
        column c joins the right-hand side.  Returns whether N^t x = c has
        an integral solution (True without c), and whether every A_b is
        integral.
        """
        k = 1 if lead else 0
        nt = transpose(num)
        basis, t = integer_matrix(self.basis_matrix)  # b = row / t
        products = [mat_mul(self._mult_matrix(b), nt) for b in basis]
        y, q = solve_scaled(nt, [[*lead[r:r + 1], *(x for m in products for x in m[r])]
                                 for r in range(self.degree)])
        has_lead = not any(v % q for row in y for v in row[:k])
        return has_lead, not any(v % (q * t) for row in y for v in row[k:])

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

    def _roots(self) -> tuple[list[float], list[complex]]:
        """Real roots ascending and complex roots of positive imaginary part by (Re, Im)."""
        fpoly = [float_of(c, "polynomial coefficient") for c in self.poly]
        r, s = self.signature
        if self.degree == 1:
            return [-fpoly[0]], []
        roots = _aberth_roots(fpoly, ROOT_TOL)
        dpoly = [k * c for k, c in enumerate(fpoly)][1:]
        roots = [_newton_polish(fpoly, dpoly, z) for z in roots]
        roots.sort(key=lambda z: abs(z.imag))
        reals = [_newton_polish(fpoly, dpoly, complex(z.real, 0.0)).real for z in roots[:r]]
        complexes = [z for z in roots[r:] if z.imag > 0]
        if len(complexes) != s:
            raise ConditioningError("root classification disagrees with signature")
        for kind, zs in (("real", [complex(x, 0.0) for x in reals]), ("complex", complexes)):
            if not all(_is_float_root(fpoly, z) for z in zs):
                raise ConditioningError(f"{kind} root residual too large")
        reals.sort()
        complexes.sort(key=lambda z: (z.real, z.imag))
        return reals, complexes

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

    def embed_rows(self, flat: tuple[IntMatrix, int], conjugated: bool = False) -> np.ndarray:
        """Place-major embeddings of the rows of N / s, each a K-vector's flattened coordinates.

        A row's embedding holds every entry at the first place, then every
        entry at the second, and so on; a complex place contributes
        (Re, Im) per entry, the mirror (Re, -Im) when `conjugated`.
        Horner's rule runs at all roots of a kind and over all rows at
        once, and a kind the field lacks costs nothing.  At a complex root
        its step is what Python's `acc * root + c` does on a `complex`: the
        product's two sums, c added to the real part and +0.0 to the
        imaginary part, so every float, signed zeros included, is that of
        a per-element loop on `complex` numbers.
        """
        num, s = flat
        try:
            coeffs = np.array([[x / s for x in r] for r in num]).reshape(len(num), -1, self.degree)
        except OverflowError:
            # float_of refuses the largest coordinate, which x / s could not carry
            float_of(Fraction(max(abs(x) for row in num for x in row), s), "lattice coordinate")
            raise
        blocks, steps = [], range(self.degree - 1, -1, -1)
        if self.real_roots:
            real = np.array(self.real_roots)
            acc = np.zeros(coeffs.shape[:2] + real.shape)
            for k in steps:
                acc = acc * real + coeffs[:, :, k, None]
            blocks.append(acc.transpose(0, 2, 1))
        if self.complex_roots:
            roots = np.array(self.complex_roots)
            zr, zi = roots.real, roots.imag
            re = im = np.zeros(coeffs.shape[:2] + roots.shape)
            for k in steps:
                c = coeffs[:, :, k, None]
                re, im = (re * zr - im * zi) + c, (re * zi + im * zr) + 0.0
            blocks.append(np.stack([re, -im if conjugated else im], axis=3).transpose(0, 2, 1, 3))
        blocks = [b.reshape(len(num), -1) for b in blocks]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    def embed_vector(self, xs: Sequence[FieldElement], conjugated: bool = False) -> np.ndarray:
        """`embed_rows` of the one K-vector xs."""
        return self.embed_rows(integer_matrix([[c for x in xs for c in x.coords]]), conjugated)[0]

    def twisted_form_diag(self, n: int) -> np.ndarray:
        """Diagonal of the scalar product twisted by 2 at complex places."""
        r, s = self.signature
        return np.concatenate([np.ones(n * r), 2.0 * np.ones(2 * n * s)])

    def __repr__(self):
        label = self.name or f"deg{self.degree}"
        return f"NumberField({label}, disc={self.discriminant})"


# ---------------------------------------------------------------------------
# presets


def rational_field() -> NumberField:
    return NumberField([-1, 1], [[1]], claimed_discriminant=1, name="Q")


def quadratic_field(m: int) -> NumberField:
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
    return NumberField([-m, 0, 1], basis, claimed_discriminant=disc, name=name)


def preset_field(name: str) -> NumberField:
    try:
        maker = PRESET_FIELDS[name]
    except KeyError:
        known = ", ".join(sorted(PRESET_FIELDS))
        raise ValueError(f"unknown preset field {name!r} (known: {known})") from None
    field = maker()
    field.name = name
    return field


PRESET_FIELDS = {
    "Q": rational_field,
    "Q_sqrt2": lambda: quadratic_field(2),
    "Q_sqrt5": lambda: quadratic_field(5),
    "Q_i": lambda: quadratic_field(-1),
    "Q_sqrt-3": lambda: quadratic_field(-3),
}
