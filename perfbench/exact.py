"""Exact arithmetic written for the benchmark alone.

The benchmark generates inputs and checks outputs with this module, so
neither step trusts the code it measures.  Field elements are lists of
rational coordinates over the power basis of Q[x]/(f), f monic.
"""

from __future__ import annotations

from fractions import Fraction


def poly_mul_mod(a, b, poly):
    """a * b reduced modulo the monic polynomial `poly` (ascending coefficients)."""
    d = len(poly) - 1
    conv = [Fraction(0)] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = conv[k]
        if c:
            conv[k] = Fraction(0)
            for i in range(d):
                conv[k - d + i] -= c * poly[i]
    return conv[:d]


def power_sums(poly, count):
    """p_k = sum of root^k for k < count, by Newton's identities (exact integers)."""
    d = len(poly) - 1
    e = [Fraction(1)] + [Fraction((-1) ** k) * poly[d - k] for k in range(1, d + 1)]
    p = [Fraction(d)]
    for k in range(1, count):
        s = Fraction(0)
        for i in range(1, min(k, d + 1)):
            s += (-1) ** (i - 1) * e[i] * p[k - i]
        if k <= d:
            s += (-1) ** (k - 1) * k * e[k]
        p.append(s)
    return p


class Field:
    """Power-basis arithmetic, the trace form and an integral basis."""

    def __init__(self, poly, basis):
        self.poly = [Fraction(c) for c in poly]
        self.d = len(poly) - 1
        self.basis = [[Fraction(c) for c in row] for row in basis]
        self._p = power_sums(self.poly, 2 * self.d - 1)

    def mul(self, a, b):
        return poly_mul_mod(a, b, self.poly)

    def trace_product(self, a, b):
        """Tr(a * b) = sum a_i b_j p_(i+j)."""
        p = self._p
        return sum((x * y * p[i + j] for i, x in enumerate(a) if x
                    for j, y in enumerate(b) if y), Fraction(0))

    def pairing(self, u, v):
        """sum_k Tr(u_k v_k) on K^n."""
        return sum((self.trace_product(a, b) for a, b in zip(u, v)), Fraction(0))

    def zbasis(self, columns):
        """Z-basis of the O-module spanned by the given K-vectors."""
        return [[self.mul(alpha, x) for x in col] for col in columns for alpha in self.basis]


def flatten(vec):
    return [c for x in vec for c in x]


def rank(rows):
    """Exact rank of a list of rational rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def solve(rows, rhs):
    """Solve x * M = rhs for square nonsingular M given by its rows; None if singular."""
    n = len(rows)
    # columns of M^T are the rows of M: solve M^T x^T = rhs^T
    aug = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n] for row in aug]


def in_lattice(zbasis, vec):
    """True when the K-vector is an integer combination of the Z-basis."""
    x = solve([flatten(z) for z in zbasis], flatten(vec))
    return x is not None and all(c.denominator == 1 for c in x)


def k_independent(field, vectors):
    """K-linear independence of n vectors in K^n: their Z-span over the
    power-basis multiples has full rational rank n*d."""
    rows = []
    for v in vectors:
        for j in range(field.d):
            theta_j = [Fraction(1 if i == j else 0) for i in range(field.d)]
            rows.append(flatten([field.mul(theta_j, x) for x in v]))
    return rank(rows) == len(vectors) * field.d


def det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return out
