"""Reference computations that the package's own results are checked against."""

import math
from fractions import Fraction

import numpy as np

from adelic import (
    DEFAULT_OPTIONS,
    ConditioningError,
    EnumerationCapError,
    FieldElement,
)
from adelic.exactla import RankTracker, mat_inv, mat_mul, mat_solve, transpose
from adelic.lattices import points_by_gauge


def flatten_kvector(xs) -> list[Fraction]:
    """Rational coordinates of a K-vector, component-major over the power basis."""
    return [c for x in xs for c in x.coords]


def fraction_det(a) -> Fraction:
    """Determinant by Gaussian elimination on `Fraction`s."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def gauss_jordan_solve(a, b):
    """Solve A X = B by Gauss-Jordan elimination, over Q or over a number field K.

    Entries are ints, `Fraction`s or `FieldElement`s of one field; the
    reference for `exactla.mat_solve` and for the pseudo-vector inverse
    that `KModule.trace_dual` reads through the regular representation.
    """
    n = len(a)
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        if pivot != c:
            aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = Fraction(1) / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


class FractionRankTracker:
    """Incremental rank of rational vectors, eliminated on `Fraction`s."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows = []
        self.pivots = []

    def try_add(self, vec) -> bool:
        v = [Fraction(x) for x in vec]
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                f = v[p] / row[p]
                v = [x - f * y for x, y in zip(v, row)]
        pivot = next((i for i, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return False
        self.rows.append(v)
        self.pivots.append(pivot)
        return True


def kcombination(field, n, coeffs, kvectors):
    """The K-vector sum of c * v over paired coefficients and vectors of length n."""
    acc = [field.zero() for _ in range(n)]
    for c, vec in zip(coeffs, kvectors):
        if c:
            acc = [a + c * v for a, v in zip(acc, vec)]
    return tuple(acc)


def kvectors(field, flat):
    """The K-vectors whose flattened coordinates are the rows of N / s, flat = (N, s)."""
    rows, s = flat
    d = field.degree
    return [tuple(field.element([Fraction(x, s) for x in row[k:k + d]])
                  for k in range(0, len(row), d)) for row in rows]


def preimage_by_field_arithmetic(lat, coords):
    """The K-vector of a lattice point: module coordinates coords U over the back map."""
    module_coords = [sum(c * u for c, u in zip(coords, col)) for col in zip(*lat.transform)]
    return kcombination(lat.field, lat.n, module_coords, kvectors(lat.field, lat.back_flat))


def complementary_basis(field):
    """Trace-dual basis of the integral basis: Tr(dual_i * b_j) = delta_ij.

    Computed directly from the trace Gram matrix, independently of the
    ideal and module duals in `adelic.omodules`.
    """
    dual_coords = mat_mul(mat_inv(field.trace_gram), field.basis_matrix)
    return [field.element(row) for row in dual_coords]


def t_n(x, y) -> Fraction:
    """Sum of Tr(x_k * y_k), element by element: the standard pairing on K^n."""
    if len(x) != len(y):
        raise ValueError("vectors of different length")
    return sum(((a * b).trace() for a, b in zip(x, y)), Fraction(0))


def contains(lattice, x) -> bool:
    """Membership of a field element in an ideal or of a K-vector in a module.

    x lies in it when its coordinates over the exact Z-basis are integers.
    """
    if isinstance(x, FieldElement):
        (num, s), v = lattice.int_coords, list(x.coords)
    else:
        (num, s), v = lattice.int_flat, flatten_kvector(x)
    rows = [[Fraction(c, s) for c in row] for row in num]
    return all(x.denominator == 1 for x, in mat_solve(transpose(rows), [[c] for c in v]))


def covering_radius_full_window(lat, body, resolution, options=DEFAULT_OPTIONS):
    """Covering bracket with every grid point measured against the whole offset window.

    The plain search that `adelic.lattices.covering_radius_bounds` prunes:
    the same grid, window and slack, with each grid point's nearest
    lattice point taken over all offsets in [-w, w + 1]^m.
    """
    k = resolution
    red = lat.reduced(options.lll_delta)
    b = red.basis
    m = red.dim
    axes = [np.arange(k) / k for _ in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    fracs = np.stack([a.ravel() for a in mesh], axis=1)
    grid = fracs @ b

    circ = math.sqrt(sum(r * r for r in body.circumradii()))
    g0 = float(np.max(body.gauge_many(grid - np.rint(fracs) @ b)))
    binv_norm = float(np.linalg.norm(np.linalg.inv(b), 2))
    w = int(math.ceil(g0 * circ * binv_norm)) + 1
    offsets = np.stack(np.meshgrid(*[np.arange(-w, w + 2) for _ in range(m)],
                                   indexing="ij"), axis=-1).reshape(-1, m)
    shift = offsets @ b

    best = np.full(len(grid), np.inf)
    chunk = max(1, int(2_000_000 // max(len(grid), 1)))
    for start in range(0, len(shift), chunk):
        block = shift[start:start + chunk]
        diffs = grid[:, None, :] - block[None, :, :]
        g = body.gauge_many(diffs.reshape(-1, m)).reshape(len(grid), len(block))
        np.minimum(best, g.min(axis=1), out=best)

    lower = float(np.max(best))
    slack = body.lipschitz() * (0.5 / k) * float(np.sum(np.linalg.norm(b, axis=1)))
    return lower, lower + slack


def lll_transform_full_gram_schmidt(b, delta):
    """LLL transform that recomputes every Gram-Schmidt row after each step.

    The plain form of `adelic.lattices._lll_transform`, which recomputes
    only the row the next decision reads; the two must agree exactly.
    """
    m = b.shape[0]
    b = b.copy()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def gram_schmidt():
        bstar = np.zeros_like(b)
        mu = np.zeros((m, m))
        norms = np.zeros(m)
        for i in range(m):
            bstar[i] = b[i]
            for j in range(i):
                mu[i, j] = (b[i] @ bstar[j]) / norms[j]
                bstar[i] = bstar[i] - mu[i, j] * bstar[j]
            norms[i] = bstar[i] @ bstar[i]
            if norms[i] <= 0:
                raise ConditioningError("lattice basis lost rank during reduction")
        return mu, norms

    mu, norms = gram_schmidt()
    k = 1
    guard = 0
    while k < m:
        guard += 1
        if guard > 100000:
            raise ConditioningError("reduction failed to terminate")
        for j in range(k - 1, -1, -1):
            if abs(mu[k, j]) > 0.5:
                r = round(mu[k, j])
                b[k] -= r * b[j]
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                mu, norms = gram_schmidt()
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            u[k - 1], u[k] = u[k], u[k - 1]
            mu, norms = gram_schmidt()
            k = max(k - 1, 1)
    return u


def enumerate_quadratic_recursive(r, bound, cap):
    """All nonzero integer c with |R c|^2 <= bound, both members of each +- pair.

    The depth-first Fincke-Pohst recursion with a per-node center sum,
    the reference for `adelic.lattices._enumerate_quadratic`.
    """
    m = r.shape[0]
    out = []
    c = [0] * m
    nodes = 0

    def recurse(i, remaining):
        nonlocal nodes
        if i < 0:
            if any(c):
                out.append(tuple(c))
                if len(out) > cap:
                    raise EnumerationCapError(f"enumeration produced more than {cap} points")
            return
        s = sum(r[i, j] * c[j] for j in range(i + 1, m))
        rad = math.sqrt(max(remaining, 0.0))
        lo = math.ceil((-s - rad) / r[i, i] - 1e-12)
        hi = math.floor((-s + rad) / r[i, i] + 1e-12)
        for ci in range(lo, hi + 1):
            nodes += 1
            if nodes > cap:
                raise EnumerationCapError(f"enumeration visited more than {cap} nodes")
            c[i] = ci
            val = (r[i, i] * ci + s) ** 2
            if val <= remaining + 1e-12:
                recurse(i - 1, remaining - val)
        c[i] = 0

    recurse(m - 1, bound)
    return out


def classical_minima(lat, body, count=None, options=DEFAULT_OPTIONS):
    """First `count` successive minima over R, with witness points.

    The j-th entry realizes the j-th minimum: its gauge is minimal among
    lattice points that extend the j-1 previous witnesses to a linearly
    independent set.  The points come from `points_by_gauge` on the
    reduced lattice, and independence is decided exactly on their integer
    coordinates.
    """
    m = lat.dim
    if count is None:
        count = m
    if count > m:
        raise ValueError("cannot ask for more minima than the lattice rank")
    tracker = RankTracker(m)
    milestones = []
    for p in points_by_gauge(lat.reduced(options.lll_delta), body, options):
        if tracker.try_add(p.coords):
            milestones.append(p)
            if len(milestones) == count:
                return milestones
    raise ConditioningError("successive minima search did not reach the requested rank")
