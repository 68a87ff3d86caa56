"""Reference computations that the package's own results are checked against."""

import math
import runpy
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from adelic import ConditioningError, EnumerationCapError, FieldElement
from adelic.exactla import RankTracker, mat_inv, mat_mul, mat_vec, transpose
from adelic.lattices import points_by_gauge

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# the scale rows' matrix recipe, shared with the script that reproduces them
random_module = runpy.run_path(str(SCRIPTS / "minima_scaling.py"))["random_module"]
# the generators near 2^50 and their scenario, which the output dump runs under every command
_path = list(sys.path)
_dump = runpy.run_path(str(SCRIPTS / "dump_outputs.py"))
sys.path[:] = _path  # the script puts perfbench on it
LARGE_GENERATORS, LARGE_SCENARIO = _dump["LARGE_GENERATORS"], _dump["LARGE_SCENARIO"]


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


def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _divmod(a, b):
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


def times_theta_power(poly, coords, k) -> list[Fraction]:
    """Power-basis coordinates of x theta^k: x(t) t^k reduced mod f by long division."""
    _, r = _divmod([Fraction(0)] * k + [Fraction(c) for c in coords], [Fraction(c) for c in poly])
    return r + [Fraction(0)] * (len(poly) - 1 - len(r))


def blockwise_regular(field, int_vectors):
    """R(W) on W's numerators (N, t), block by block: block (i, j) is the transposed
    multiplication matrix of W_ij, whose column k is W_ij theta^k by long division."""
    num, t = int_vectors
    d = field.degree

    def mult(x):
        cols = [times_theta_power(field.poly, x, k) for k in range(d)]
        return [[cols[k][i] for k in range(d)] for i in range(d)]

    return [[x for part in parts for x in part] for w in num
            for parts in zip(*(transpose(mult(w[j:j + d])) for j in range(0, len(w), d)))], t


def _sign_changes(signs):
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def sturm_real_root_count(poly) -> int:
    """Number of distinct real roots, by a Sturm chain on `Fraction`s evaluated at +-inf.

    The reference for the real-place count that `NumberField.signature`
    reads off the trace form; coefficients ascend.
    """
    p = _trim([Fraction(c) for c in poly])
    if len(p) < 2:
        return 0
    chain = [p, _trim([k * c for k, c in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        _, r = _divmod(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])
    at_pos = [1 if q[-1] > 0 else -1 for q in chain if q]
    # a term of degree e has the sign (-1)^e of its leading coefficient at -inf
    at_neg = [(1 if q[-1] > 0 else -1) * (-1) ** (len(q) - 1) for q in chain if q]
    return _sign_changes(at_neg) - _sign_changes(at_pos)


def precise_root(poly, z: complex, digits: int = 60) -> tuple[Decimal, Decimal]:
    """The root next to z of the integer polynomial poly, as (Re, Im) to `digits` digits.

    The reference for the float roots of `NumberField`: complex Newton
    steps on pairs of `Decimal`s at `digits` + 10 digits, started from z
    and stopped once a step is below 10^-digits of the root.  Each step
    doubles the correct digits near a simple root, so from a float root
    three or four steps reach 60 digits.  Coefficients ascend.
    """
    with localcontext() as ctx:
        ctx.prec = digits + 10
        x, y = Decimal(z.real), Decimal(z.imag)
        for _ in range(40):
            # Horner's rule for p and p' at x + iy, p' first from the old p
            pr = pi = dr = di = Decimal(0)
            for c in reversed(poly):
                dr, di = dr * x - di * y + pr, dr * y + di * x + pi
                pr, pi = pr * x - pi * y + c, pr * y + pi * x
            den = dr * dr + di * di
            sr, si = (pr * dr + pi * di) / den, (pi * dr - pr * di) / den
            x, y = x - sr, y - si
            if sr * sr + si * si <= (x * x + y * y) * Decimal(10) ** (-2 * digits):
                return +x, +y
    raise ArithmeticError(f"Newton did not settle on a root of {poly} near {z}")


def reduction_trace_form(poly):
    """P[i][j] = Tr(theta^(i+j)) for theta a root of the monic integer poly.

    The reference for `NumberField.trace_form`, by reduction rather than
    power sums: theta^m is reduced to power-basis coordinates by
    theta^d = -a_(d-1) theta^(d-1) - ... - a_0, Tr(theta^k) for k < d is
    the trace of the matrix of multiplication by theta^k, and for
    d <= k <= 2d-2 the combination of those traces that the reduction
    of theta^k gives.
    """
    d = len(poly) - 1
    low = [-c for c in poly[:-1]]
    powers = [[int(i == m) for i in range(d)] for m in range(d)]  # theta^m, m < 2d - 1
    for _ in range(d - 1):
        cur = [0] + powers[-1]
        top = cur.pop()
        powers.append([c + top * r for c, r in zip(cur, low)])
    traces = [sum(powers[k + j][j] for j in range(d)) for k in range(d)]
    traces += [sum(r * t for r, t in zip(powers[k], traces)) for k in range(d, 2 * d - 1)]
    return [[traces[i + j] for j in range(d)] for i in range(d)]


def gauss_jordan_solve(a, b):
    """Solve A X = B by Gauss-Jordan elimination, over Q or over a number field K.

    Entries are ints, `Fraction`s or `FieldElement`s of one field; the
    reference for `exactla.solve_scaled` and `exactla.mat_inv`, and for
    the pseudo-vector inverse that `KModule.trace_dual` reads through the
    regular representation.
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


def fraction_krank_decisions(field, preimages):
    """Per K-vector w, whether it raises the K-rank: w joins a `Fraction`
    echelon with theta^j w for j < d."""
    span, decisions = FractionRankTracker(len(flatten_kvector(preimages[0]))), []
    for w in preimages:
        decisions.append(span.try_add(flatten_kvector(w)))
        if decisions[-1]:
            for _ in range(field.degree - 1):
                w = tuple(field.theta() * x for x in w)
                span.try_add(flatten_kvector(w))
    return decisions


def kcombination(field, n, coeffs, kvectors):
    """The K-vector sum of c * v over paired coefficients and vectors of length n."""
    acc = [field.zero() for _ in range(n)]
    for c, vec in zip(coeffs, kvectors):
        if c:
            acc = [a + c * v for a, v in zip(acc, vec)]
    return tuple(acc)


def circumradii(body):
    """The circumradius of each place body of a `ProductBody`."""
    return [pb.shape.circumradius() for pb in body.place_bodies]


def rational_flat(module):
    """A module's Z-basis as rational coordinate rows, from its `int_flat` numerators."""
    rows, s = module.int_flat
    return [[Fraction(x, s) for x in row] for row in rows]


def flat_pairing(module, other):
    """sum_k Tr(x_k y_k) on two modules' Z-bases as one flat product: (A (I_n (x) P) B^t, s t).

    (A, s) and (B, t) are the modules' `int_flat`; the reference for
    `KModule.trace_dual`, which pairs only the ideals' d x d Z-bases.
    """
    d, p = module.field.degree, module.field.trace_form
    (a, s), (b, t) = module.int_flat, other.int_flat
    other_p = [[x for k in range(0, len(y), d) for x in mat_vec(p, y[k:k + d])] for y in b]
    return mat_mul(a, transpose(other_p)), s * t


def embed_flat(field, flat, conjugated=False) -> np.ndarray:
    """Place-major embedding of the K-vector whose flattened coordinates are these floats.

    Horner's rule on Python `complex` numbers, one element at a time at
    each root: the reference for `NumberField.embed_rows`, float for
    float.  Every entry at the first place comes first, then the second
    place; a complex place gives (Re, Im) per entry, (Re, -Im) when
    conjugated.
    """
    def at(coords, root):
        acc = 0j
        for c in reversed(coords):
            acc = acc * root + c
        return acc

    r, s = field.signature
    d = field.degree
    sign = -1.0 if conjugated else 1.0
    e = []
    for k in range(0, len(flat), d):
        coords = flat[k:k + d]
        row = [at(coords, complex(root, 0)).real for root in field.real_roots]
        for root in field.complex_roots:
            v = at(coords, root)
            row += [v.real, sign * v.imag]
        e.append(row)
    e = np.array(e)
    pairs = e[:, r:].reshape(len(e), s, 2).transpose(1, 0, 2)
    return np.concatenate([e[:, :r].T.ravel(), pairs.ravel()])


def kvectors(field, flat):
    """The K-vectors whose flattened coordinates are the rows of N / s, flat = (N, s)."""
    rows, s = flat
    d = field.degree
    return [tuple(field.element([Fraction(x, s) for x in row[k:k + d]])
                  for k in range(0, len(row), d)) for row in rows]


def trace_gram(field, flat):
    """sum_b Tr(x_b y_b) over the K-vectors of flat = (N, s), in field arithmetic.

    Over a totally real field this is the Gram matrix under the twisted
    form, sum over the places of sigma(x) sigma(y), found with no root.
    """
    xs = kvectors(field, flat)
    return [[sum((a * b).trace() for a, b in zip(x, y)) for y in xs] for x in xs]


def module_zbasis(module):
    """A module's Z-basis alpha w_i, alpha over each ideal's Z-basis, in field arithmetic."""
    return [tuple(alpha * x for x in w) for a, w in module.pseudo for alpha in a.zbasis]


def preimage_by_field_arithmetic(module, lat, coords):
    """The K-vector of a point of the module's lattice or of a reduced copy of it.

    The change of basis u from the module's Z-basis to the lattice basis
    is read off the floats, the Z-basis embedded one K-vector at a time;
    the point's module coordinates coords u then combine the Z-basis in
    field arithmetic.  Nothing here reads the lattice's exact rows.
    """
    zbasis = module_zbasis(module)
    base = np.array([lat.field.embed_vector(w, lat.conjugated) for w in zbasis])
    u = lat.basis @ np.linalg.inv(base)
    assert np.allclose(u, np.rint(u), atol=1e-6)
    u = np.rint(u).astype(int).tolist()
    module_coords = [sum(c * x for c, x in zip(coords, col)) for col in zip(*u)]
    return kcombination(lat.field, module.rank, module_coords, zbasis)


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
    return all(x.denominator == 1 for x, in gauss_jordan_solve(transpose(rows), [[c] for c in v]))


def covering_radius_full_window(lat, body, resolution, whole=False):
    """Covering bracket with every grid point measured against its whole offset window.

    The plain search that `adelic.lattices.covering_radius_bounds` prunes:
    the same grid points (first digit at most resolution // 2, or every
    point when `whole`) and slack, and each grid point's nearest lattice
    point taken over all offsets of its own window.  The lattice is taken as
    given, as there: pass the basis the pruned search gets, since a second
    float LLL of a reduced basis need not leave every bit alone.  For the
    grid point f B, g is the gauge to its nearest-plane (Babai) point under
    the Euclidean Gram-Schmidt basis of B, found here by a QR factorisation.
    A lattice point c B at gauge <= g lies within g * circ of f B, so
    |c - f| <= g * circ * |B^-1| and c lies in [-w, w + 1]^m for
    w = ceil(g * circ * |B^-1|) + 1.  Grid points with the same w are
    measured together.
    """
    k = resolution
    b = lat.basis
    m = lat.dim
    axes = [np.arange(k if whole or i else k // 2 + 1) / k for i in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    fracs = np.stack([a.ravel() for a in mesh], axis=1)
    grid = fracs @ b

    # nearest plane on B = L Q^t, L lower triangular: the residual (f - c) L
    # has entry i = sum_{j >= i} (f_j - c_j) L_ji, so c_i is rounded from m - 1 down
    low = np.linalg.qr(b.T)[1].T
    near = np.zeros_like(fracs)
    for i in range(m - 1, -1, -1):
        carry = (fracs[:, i + 1:] - near[:, i + 1:]) @ low[i + 1:, i] / low[i, i]
        near[:, i] = np.rint(fracs[:, i] + carry)
    g = body.gauge_many(grid - near @ b)

    circ = math.sqrt(sum(r * r for r in circumradii(body)))
    binv_norm = float(np.linalg.norm(np.linalg.inv(b), 2))
    windows = np.ceil(g * circ * binv_norm).astype(int) + 1
    best = np.full(len(grid), np.inf)
    for w in np.unique(windows):
        points = grid[windows == w]
        offsets = np.stack(np.meshgrid(*[np.arange(-w, w + 2) for _ in range(m)],
                                       indexing="ij"), axis=-1).reshape(-1, m)
        shift = offsets @ b
        near_w = np.full(len(points), np.inf)
        chunk = max(1, int(2_000_000 // len(points)))
        for start in range(0, len(shift), chunk):
            block = shift[start:start + chunk]
            diffs = points[:, None, :] - block[None, :, :]
            gw = body.gauge_many(diffs.reshape(-1, m)).reshape(len(points), len(block))
            np.minimum(near_w, gw.min(axis=1), out=near_w)
        best[windows == w] = near_w

    lower = float(np.max(best))
    slack = body.lipschitz() * (0.5 / k) * float(np.sum(np.linalg.norm(b, axis=1)))
    return lower, lower + slack


def fraction_gram_schmidt(g):
    """mu and |b*|^2 of the rows whose Gram matrix is g, on `Fraction`s.

    <b_i, b*_j> is g_ij minus mu_jk <b_i, b*_k> over k < j, mu_ij is that over
    |b*_j|^2, and |b*_i|^2 is <b_i, b*_i>.
    """
    mu, norms = [], []
    for i, row in enumerate(g):
        dots = []
        for j in range(i):
            dots.append(Fraction(row[j]) - sum(mu[j][k] * dots[k] for k in range(j)))
        mu.append([x / norms[j] for j, x in enumerate(dots)])
        norms.append(row[i] - sum(m * x for m, x in zip(mu[i], dots)))
    return mu, norms


def is_lll_reduced(g, delta=Fraction(99, 100)) -> bool:
    """Whether the rows of Gram matrix g are size-reduced and Lovasz at delta, exactly."""
    mu, norms = fraction_gram_schmidt(g)
    return (all(abs(x) <= Fraction(1, 2) for row in mu for x in row)
            and all(norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]
                    for k in range(1, len(g))))


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


def classical_minima(lat, body, count=None):
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
    for p in points_by_gauge(lat.reduced(), body, count):
        if tracker.try_add(p.coords):
            milestones.append(p)
            if len(milestones) == count:
                return milestones
    raise ConditioningError("successive minima search did not reach the requested rank")
