"""Embedded lattices in R^(n*d): reduction, enumeration, minima, covering radii.

A lattice carries the diagonal twisted form F, a float basis (rows), and
optionally a back map to K-vectors (a module's Z-basis) with the integer
transform U from it to the basis; reduction composes U.  All rank
decisions, over Q and over K, are made exactly on integer coordinates;
a point is mapped back to a K-vector only when a caller keeps it
(`preimage_of`).  Floats only measure gauges, and enumeration is seeded
by each body's own diagonal bounding form (`ProductBody.bounding_ellipsoid`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .bodies import ProductBody
from .config import ComputeOptions, DEFAULT_OPTIONS
from .errors import ConditioningError, DimensionLimitError, EnumerationCapError
from .exactla import RankTracker, mat_det, mat_mul, mat_vec, transpose
from .numberfield import NumberField
from .omodules import KModule, KVector, kcombination


class EmbeddedLattice:
    """Full-rank lattice in R^m with a diagonal form and optional exact preimages.

    Basis row i is the embedding of sum_k transform[i][k] * back_map[k];
    the transform defaults to the identity.
    """

    def __init__(
        self,
        field: NumberField,
        n: int,
        basis: np.ndarray,
        form: np.ndarray,
        back_map: list[KVector] | None = None,
        conjugated: bool = False,
        transform: list[list[int]] | None = None,
    ):
        basis = np.asarray(basis, dtype=float)
        m = basis.shape[0]
        if basis.shape != (m, m):
            raise ValueError("lattice basis must be square and full rank")
        self.field = field
        self.n = n
        self.basis = basis
        self.form = np.asarray(form, dtype=float)
        self.back_map = back_map
        self.conjugated = conjugated
        if transform is None:
            transform = [[int(i == j) for j in range(m)] for i in range(m)]
        self.transform = transform
        if back_map is not None:
            if len(back_map) != m:
                raise ValueError("back map must have one K-vector per basis row")
            u = np.array(transform, dtype=float)
            emb = np.array([field.embed_vector(vec, conjugated) for vec in back_map])
            # an entry of u @ emb may be off by the rounding error of its terms
            scale = max(1.0, float(np.max(np.abs(u) @ np.abs(emb))))
            if float(np.max(np.abs(u @ emb - basis))) > 1e-9 * scale:
                raise ValueError("back map does not embed onto the basis rows")

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def gram(self) -> np.ndarray:
        return (self.basis * self.form) @ self.basis.T

    def reduced(self, delta: float = 0.99) -> "EmbeddedLattice":
        """LLL reduction under the form, with the transform applied exactly."""
        scaled = self.basis * np.sqrt(self.form)
        u = _lll_transform(scaled, delta)
        new_basis = np.array(
            [[sum(u[i][k] * self.basis[k][j] for k in range(self.dim))
              for j in range(self.dim)] for i in range(self.dim)])
        return EmbeddedLattice(self.field, self.n, new_basis, self.form, self.back_map,
                               self.conjugated, mat_mul(u, self.transform))

    def preimage_of(self, coords: Sequence[int]) -> KVector | None:
        if self.back_map is None:
            return None
        module_coords = mat_vec(transpose(self.transform), coords)
        return kcombination(self.field, self.n, module_coords, self.back_map)


def lattice_from_module(module: KModule, conjugated: bool = False) -> EmbeddedLattice:
    """Embed a rank-n module place-major; the twisted form comes with it."""
    field = module.field
    n = module.rank
    zb = module.zbasis
    basis = np.array([field.embed_vector(z, conjugated) for z in zb])
    return EmbeddedLattice(field, n, basis, field.twisted_form_diag(n), list(zb), conjugated)


def polar_lattice(
    lat: EmbeddedLattice,
    dual_module: KModule | None = None,
    tol: float = 1e-8,
) -> EmbeddedLattice:
    """Dual basis rows B* with B* diag(F) B^T = I.

    Numeric by default (no preimages).  When the exact dual module is
    supplied, its mirror-embedded lattice is returned instead, after a
    check that the two routes produce the same lattice.
    """
    g = lat.gram()
    dual = np.linalg.solve(g, lat.basis)
    numeric = EmbeddedLattice(lat.field, lat.n, dual, lat.form, None, not lat.conjugated)
    if dual_module is None:
        return numeric
    embedded = lattice_from_module(dual_module, not lat.conjugated)
    if not lattice_equal(embedded, numeric, tol):
        raise ConditioningError("embedded dual module disagrees with the numeric dual lattice")
    return embedded


def lattice_equal(a: EmbeddedLattice, b: EmbeddedLattice, tol: float = 1e-8) -> bool:
    """Same lattice up to an integer unimodular change of basis."""
    if a.dim != b.dim:
        return False
    c = a.basis @ np.linalg.inv(b.basis)
    cr = np.rint(c)
    if np.max(np.abs(c - cr)) > tol:
        return False
    if abs(mat_det([[int(x) for x in row] for row in cr])) != 1:
        return False
    scale = max(1.0, float(np.max(np.abs(a.basis))))
    return float(np.max(np.abs(cr @ b.basis - a.basis))) <= tol * scale


# ---------------------------------------------------------------------------
# LLL on float rows (plain Euclidean form; callers pre-scale for the twist)


def _lll_transform(b: np.ndarray, delta: float) -> list[list[int]]:
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


# ---------------------------------------------------------------------------
# enumeration


@dataclass
class LatticePoint:
    coords: tuple[int, ...]  # over the reduced basis used for the search
    point: np.ndarray
    gauge: float

    def sort_key(self):
        return (self.gauge, self.coords)


def _enumerate_quadratic(r: np.ndarray, bound: float, cap: int) -> list[tuple[int, ...]]:
    """All nonzero integer c with |R c|^2 <= bound, R upper triangular."""
    m = r.shape[0]
    out: list[tuple[int, ...]] = []
    c = [0] * m
    nodes = 0

    def recurse(i: int, remaining: float):
        nonlocal nodes
        if i < 0:
            if any(c):
                out.append(tuple(c))
                if len(out) > cap:
                    raise EnumerationCapError(
                        f"enumeration produced more than {cap} points; "
                        "raise the cap or shrink the search radius")
            return
        s = sum(r[i, j] * c[j] for j in range(i + 1, m))
        rad = math.sqrt(max(remaining, 0.0))
        lo = math.ceil((-s - rad) / r[i, i] - 1e-12)
        hi = math.floor((-s + rad) / r[i, i] + 1e-12)
        for ci in range(lo, hi + 1):
            nodes += 1
            if nodes > cap:
                raise EnumerationCapError(
                    f"enumeration visited more than {cap} nodes; "
                    "raise the cap or shrink the search radius")
            c[i] = ci
            val = (r[i, i] * ci + s) ** 2
            if val <= remaining + 1e-12:
                recurse(i - 1, remaining - val)
        c[i] = 0

    recurse(m - 1, bound)
    return out


def enumerate_below(
    lat: EmbeddedLattice,
    body: ProductBody,
    t: float,
    options: ComputeOptions = DEFAULT_OPTIONS,
) -> list[LatticePoint]:
    """All nonzero lattice points of gauge <= t, one per +- pair, sorted.

    The lattice must already be reduced; completeness comes from the
    bounding ellipsoid of the body.  The representative of a pair is the
    one whose first nonzero coordinate is positive, and the list is
    ordered by (gauge, coordinates).
    """
    if t <= 0:
        return []
    bound = body.enumeration_quadratic_bound(t) * (1 + 1e-9)
    coords = _enumerate_quadratic(_bounding_factor(lat, body), bound, options.enumeration_cap)

    kept = [c for c in coords if next(x for x in c if x != 0) > 0]
    if not kept:
        return []
    vecs = [np.asarray(c, dtype=float) @ lat.basis for c in kept]
    gauges = body.gauge_many(np.array(vecs))
    points = [LatticePoint(c, vec, float(g))
              for c, vec, g in zip(kept, vecs, gauges) if g <= t * (1 + 1e-12)]
    points.sort(key=LatticePoint.sort_key)
    return points


def _bounding_factor(lat: EmbeddedLattice, body: ProductBody) -> np.ndarray:
    """Upper triangular R with |R c|^2 the body's bounding form at the point c."""
    q = body.bounding_ellipsoid()
    try:
        return np.linalg.cholesky((lat.basis * q) @ lat.basis.T).T
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("bounding form is numerically singular") from exc


def points_by_gauge(
    lat: EmbeddedLattice,
    body: ProductBody,
    options: ComputeOptions = DEFAULT_OPTIONS,
) -> Iterator[LatticePoint]:
    """Nonzero points of a reduced lattice in nondecreasing (gauge, coords) order.

    One point per +- pair, as in `enumerate_below`.  The search level
    starts at a lower bound for the first minimum, read off the body's
    bounding form, and doubles, for at most 60 rounds; so a minimum is
    found at a level below twice its value, even when every basis
    vector lies far outside a skewed body.  Each round yields only the
    points above the previous level (with the same 1e-12 slack
    `enumerate_below` keeps), so no pair comes twice.
    The stream simply ends after the last round; callers say what they
    did not find.  A consumer that stops early saves the later rounds.
    """
    # a nonzero point has |R c| >= min_i R_ii (its last nonzero coordinate is
    # at least 1 in size), and its bounding form is at most the bound at its gauge
    r = _bounding_factor(lat, body)
    t = float(np.min(np.abs(np.diag(r)))) / math.sqrt(body.enumeration_quadratic_bound(1.0))
    if t <= 0:
        raise ConditioningError("bounding form is numerically singular")
    floor = -math.inf
    for _ in range(60):
        for p in enumerate_below(lat, body, t, options):
            if p.gauge > floor:
                yield p
        floor = t * (1 + 1e-12)
        t *= 2


def classical_minima(
    lat: EmbeddedLattice,
    body: ProductBody,
    count: int | None = None,
    options: ComputeOptions = DEFAULT_OPTIONS,
) -> list[LatticePoint]:
    """First `count` successive minima over R, with witness points.

    Returns one point per milestone: the j-th entry realizes the j-th
    minimum, i.e. its gauge is minimal among lattice points that extend
    j-1 previous witnesses to a linearly independent set.  The points
    come from `points_by_gauge`, and the search stops at the `count`-th
    milestone.  Independence is decided exactly on integer coordinates.
    """
    m = lat.dim
    if count is None:
        count = m
    if count > m:
        raise ValueError("cannot ask for more minima than the lattice rank")
    tracker = RankTracker(m)
    milestones: list[LatticePoint] = []
    for p in points_by_gauge(lat.reduced(options.lll_delta), body, options):
        if tracker.try_add(p.coords):
            milestones.append(p)
            if len(milestones) == count:
                return milestones
    raise ConditioningError("successive minima search did not reach the requested rank")


# ---------------------------------------------------------------------------
# covering radius


def covering_radius_bounds(
    lat: EmbeddedLattice,
    body: ProductBody,
    resolution: int | None = None,
    options: ComputeOptions = DEFAULT_OPTIONS,
) -> tuple[float, float]:
    """Bracket the covering radius by a grid over the fundamental cell.

    Grid points are corner-aligned (multiples of 1/resolution in cell
    coordinates) so that doubling the resolution refines the same grid.
    The lower end is the largest distance (in gauge) from a grid point to
    its nearest lattice point, the upper end adds the Lipschitz slack of
    the grid spacing.  Nearest points are searched only among offsets
    whose cell meets the bounding form at the largest corner gauge, and
    only for grid points whose corner gauge still exceeds the running
    maximum, visited in decreasing order of it; so the cost is the grid
    (resolution**dim corner gauges) plus a few exact minima, not
    resolution**dim times the offset window.  Dimensions above 4 are
    rejected.
    """
    if lat.dim > 4:
        raise DimensionLimitError(
            "covering radius grid search is limited to lattices of dimension at most 4")
    k = resolution if resolution is not None else options.resolution
    if k < 2:
        raise ValueError("resolution must be at least 2")
    red = lat.reduced(options.lll_delta)
    b = red.basis
    m = red.dim
    if k ** m > 2_000_000:
        raise EnumerationCapError(
            f"covering grid would hold {k ** m} points; lower the resolution")

    axes = [np.arange(k) / k for _ in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    fracs = np.stack([a.ravel() for a in mesh], axis=1)
    grid = fracs @ b

    # window size: any better lattice representative of a cell point stays
    # within gauge <= g0 of it, hence within a ball of radius g0 * circ
    circ = math.sqrt(sum(r * r for r in body.circumradii()))
    corner_best = body.gauge_many(grid - np.rint(fracs) @ b)
    g0 = float(np.max(corner_best))
    binv_norm = float(np.linalg.norm(np.linalg.inv(b), 2))
    w = int(math.ceil(g0 * circ * binv_norm)) + 1

    if (2 * w + 2) ** m > options.enumeration_cap:
        raise EnumerationCapError(
            "covering search window is too large; the body is likely far "
            "from round relative to the lattice")
    offsets = np.stack(np.meshgrid(*[np.arange(-w, w + 2) for _ in range(m)],
                                   indexing="ij"), axis=-1).reshape(-1, m)
    # a nearest point c of a grid point f (in [0, 1)^m) has gauge <= g0 at
    # f - c, so |R (c - f)| is within the bounding form at g0, and
    # |R (f - 1/2)| <= sum_j |R e_j| / 2: keep only the offsets c that can
    # be one.  The rows kept are those of the full product, bit for bit.
    r = _bounding_factor(red, body)
    reach = (math.sqrt(body.enumeration_quadratic_bound(g0)) * (1 + 1e-9)
             + 0.5 * float(np.sum(np.linalg.norm(r, axis=0))))
    near = np.linalg.norm((offsets - 0.5) @ r.T, axis=1) <= reach
    shift = (offsets @ b)[near]

    # best <= corner_best per grid point, so once the next corner gauge is
    # at most the running maximum no later grid point can raise it
    order = np.argsort(-corner_best, kind="stable")
    lower = -math.inf
    most = max(1, 2_000_000 // len(shift))
    start, size = 0, min(16, most)
    while start < len(order) and corner_best[order[start]] > lower:
        pts = grid[order[start:start + size]]
        diffs = pts[:, None, :] - shift[None, :, :]
        g = body.gauge_many(diffs.reshape(-1, m)).reshape(len(pts), len(shift))
        lower = max(lower, float(np.max(g.min(axis=1))))
        start, size = start + size, min(2 * size, most)

    slack = body.lipschitz() * (0.5 / k) * float(np.sum(np.linalg.norm(b, axis=1)))
    return lower, lower + slack
