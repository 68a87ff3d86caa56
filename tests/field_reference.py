"""Reference computations that the package's own results are checked against."""

import math
from fractions import Fraction

import numpy as np

from adelic import DEFAULT_OPTIONS, FieldElement, flatten_kvector
from adelic.exactla import is_integral_vec, mat_inv, mat_mul, solve_vec, transpose


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


def preimage_by_field_arithmetic(lat, coords):
    """The K-vector of a lattice point: module coordinates coords U over the back map."""
    module_coords = [sum(c * u for c, u in zip(coords, col)) for col in zip(*lat.transform)]
    return kcombination(lat.field, lat.n, module_coords, lat.back_map)


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
        rows, v = lattice.coord_matrix, list(x.coords)
    else:
        rows, v = lattice.flat, flatten_kvector(x)
    return is_integral_vec(solve_vec(transpose(rows), v))


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
