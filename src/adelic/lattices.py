"""Embedded lattices in R^(n*d): reduction, enumeration, minima, covering radii.

A lattice carries the diagonal twisted form F, a float basis (rows), and
optionally a back map to K-vectors (a module's Z-basis, as its integer
coordinates N / s) with the integer transform U from it to the basis;
reduction composes U.  All rank decisions, over Q and over K, are
integer eliminations on integer coordinates; a point is mapped back to
a K-vector only when a caller keeps it (`preimage_of`: its coordinates
times U times N / s).  Floats only measure gauges, and enumeration is
seeded by each body's own diagonal bounding form.

LLL recomputes one Gram-Schmidt row per step.  One enumeration engine
expands a numpy frontier level by level, around the origin for minima
and around many grid points at once for covering radii; both give the
floats of the plain loops (full Gram-Schmidt after every step, a
depth-first recursion) bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .bodies import ProductBody
from .config import ComputeOptions, DEFAULT_OPTIONS
from .errors import ConditioningError, DimensionLimitError, EnumerationCapError
from .exactla import mat_det, mat_mul, mat_vec, transpose
from .numberfield import NumberField
from .omodules import KModule, KVector


class EmbeddedLattice:
    """Full-rank lattice in R^m with a diagonal form and optional exact preimages.

    Basis row i embeds sum_k transform[i][k] * row k of the back map
    `back_flat`, flattened K-coordinates N / s; the transform defaults to
    the identity.  The back map's embedding is computed once (or passed
    as `back_embedding`) and shared by every reduced copy.
    """

    def __init__(
        self,
        field: NumberField,
        n: int,
        basis: np.ndarray,
        form: np.ndarray,
        back_flat: tuple[list[list[int]], int] | None = None,
        conjugated: bool = False,
        transform: list[list[int]] | None = None,
        *,
        back_embedding: np.ndarray | None = None,
    ):
        basis = np.asarray(basis, dtype=float)
        m = basis.shape[0]
        if basis.shape != (m, m):
            raise ValueError("lattice basis must be square and full rank")
        self.field = field
        self.n = n
        self.basis = basis
        self.form = np.asarray(form, dtype=float)
        self.back_flat = back_flat
        self.conjugated = conjugated
        if transform is None:
            transform = [[int(i == j) for j in range(m)] for i in range(m)]
        self.transform = transform
        self.back_embedding = None
        if back_flat is not None:
            if len(back_flat[0]) != m:
                raise ValueError("back map must have one K-vector per basis row")
            if back_embedding is None:
                back_embedding = _embed_rows(field, back_flat, conjugated)
            self.back_embedding = back_embedding
            u = np.array(transform, dtype=float)
            # an entry of u @ emb may be off by the rounding error of its terms
            scale = max(1.0, float(np.max(np.abs(u) @ np.abs(back_embedding))))
            if float(np.max(np.abs(u @ back_embedding - basis))) > 1e-9 * scale:
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
        # entry (i, j) sums u[i][k] * basis[k][j] over increasing k from +0.0,
        # the floats of the per-entry sum
        new_basis = np.zeros_like(self.basis)
        for k, column in enumerate(np.array(u, dtype=float).T):
            new_basis = new_basis + column[:, None] * self.basis[k]
        return EmbeddedLattice(self.field, self.n, new_basis, self.form, self.back_flat,
                               self.conjugated, mat_mul(u, self.transform),
                               back_embedding=self.back_embedding)

    @cached_property
    def _preimage_map(self) -> tuple[list[list[int]], int]:
        """(U N)^t and s, where N / s holds the back map's flattened coordinates."""
        flat, s = self.back_flat
        return transpose(mat_mul(self.transform, flat)), s

    def preimage_of(self, coords: Sequence[int]) -> KVector | None:
        """The K-vector of the point: coords U times the flattened back map, in d-blocks."""
        if self.back_flat is None:
            return None
        rows, s = self._preimage_map
        flat = [Fraction(x, s) for x in mat_vec(rows, coords)]
        d = self.field.degree
        return tuple(self.field.element(flat[k:k + d]) for k in range(0, len(flat), d))


def _embed_rows(field: NumberField, flat: tuple[list[list[int]], int], conjugated: bool):
    """The embeddings of the rows of N / s, from the coordinate floats N / s."""
    return np.array([field.embed_flat([x / flat[1] for x in row], conjugated) for row in flat[0]])


def lattice_from_module(module: KModule, conjugated: bool = False) -> EmbeddedLattice:
    """Embed a rank-n module's Z-basis `int_flat` place-major; the twisted form comes with it."""
    field = module.field
    basis = _embed_rows(field, module.int_flat, conjugated)
    return EmbeddedLattice(field, module.rank, basis, field.twisted_form_diag(module.rank),
                           module.int_flat, conjugated, back_embedding=basis)


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
    """The integer transform U of an LLL reduction of the rows of b.

    Gram-Schmidt row i is a function of basis rows 0..i alone, so only
    row k is recomputed: when the loop arrives at k and after each size
    reduction of row k (after a swap that leaves k at 1, row 0 as well).
    Each row is computed from scratch by the classical formulas, so every
    mu and |b*|^2 read is the float a full recomputation would give.
    """
    m = b.shape[0]
    b = b.copy()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    bstar = np.zeros_like(b)
    mu = np.zeros((m, m))
    norms = np.zeros(m)

    def gram_schmidt_row(i: int):
        bstar[i] = b[i]
        for j in range(i):
            mu[i, j] = (b[i] @ bstar[j]) / norms[j]
            bstar[i] = bstar[i] - mu[i, j] * bstar[j]
        norms[i] = bstar[i] @ bstar[i]
        if norms[i] <= 0:
            raise ConditioningError("lattice basis lost rank during reduction")

    gram_schmidt_row(0)
    k = 1
    guard = 0
    while k < m:
        guard += 1
        if guard > 100000:
            raise ConditioningError("reduction failed to terminate")
        gram_schmidt_row(k)
        for j in range(k - 1, -1, -1):
            if abs(mu[k, j]) > 0.5:
                r = round(mu[k, j])
                b[k] -= r * b[j]
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                gram_schmidt_row(k)
        if norms[k] >= (delta - mu[k, k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            u[k - 1], u[k] = u[k], u[k - 1]
            if k == 1:
                gram_schmidt_row(0)
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


def _enumerate_quadratic(r: np.ndarray, bound, cap: int, targets: np.ndarray | None = None):
    """Integer c with |R (c - f)|^2 <= bound, R upper triangular: the Fincke-Pohst search.

    Breadth first from the last coordinate down: at level i each frontier
    row takes every c_i in its range whose term fits in its remaining
    bound.  The center is -(R f)_i plus the row's R[i, j] c_j over j > i
    in increasing j; at f = 0 every range, term and remainder is the
    float of the depth-first recursion.  Nodes are counted per level, and
    a level that would take the count past `cap` is never built.

    Without targets the one root is f = 0 and the nonzero c come one per
    +- pair (c_i >= 0 while every higher coordinate is zero), as an int
    array, each row's first nonzero coordinate positive.  With targets
    (k x m, lattice coordinates) and one bound each, the k roots share
    the frontier, each row carrying its target's index, and (coords,
    target index) is returned, zero included.
    """
    m = r.shape[0]
    centred = targets is not None
    shift = targets @ r.T if centred else None
    remaining = np.array(bound if centred else [bound], dtype=float)
    root = np.arange(len(remaining))
    # the frontier is one array per coordinate i+1..m-1, the lower ones being zero
    cols: list[np.ndarray] = []
    nodes = 0
    for i in range(m - 1, -1, -1):
        s = -shift[root, i] if centred else np.zeros(len(remaining))
        for j in range(i + 1, m):
            s = s + r[i, j] * cols[j - i - 1]
        rad = np.sqrt(np.maximum(remaining, 0.0))
        lo = np.ceil((-s - rad) / r[i, i] - 1e-12)
        hi = np.floor((-s + rad) / r[i, i] + 1e-12)
        if not centred:
            # row 0 is the all-zero prefix: its range is symmetric, keep c_i >= 0
            lo[0] = 0.0
        counts = np.maximum(hi - lo + 1, 0)
        nodes += float(np.sum(counts))
        if not nodes <= cap:
            raise EnumerationCapError(
                f"enumeration would visit more than {cap} nodes; "
                "raise the cap or shrink the search radius")
        counts = counts.astype(np.int64)
        parent = np.repeat(np.arange(len(remaining)), counts)
        starts = np.cumsum(counts) - counts
        ci = np.repeat(lo.astype(np.int64) - starts, counts) + np.arange(len(parent))
        # float_power is libm pow, as a scalar ** 2; an array's ** 2 is x * x
        val = np.float_power(r[i, i] * ci + s[parent], 2.0)
        rem = remaining[parent]
        keep = val <= rem + 1e-12
        remaining = (rem - val)[keep]
        rows = parent[keep]
        del parent, val, rem
        # one column at a time, so the old and new frontier are never both whole
        for k, col in enumerate(cols):
            cols[k] = col[rows]
        cols.insert(0, ci[keep])
        root = root[rows]
    coords = np.stack(cols, axis=1)
    del cols
    if centred:
        return coords, root
    # the zero vector stays first; flip each pair to its first-nonzero-positive member
    coords = coords[1:]
    first = coords[np.arange(len(coords)), np.argmax(coords != 0, axis=1)]
    coords *= np.where(first < 0, -1, 1)[:, None]
    return coords


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
    ordered by (gauge, coordinates).  The point vectors are one stacked
    product, row by row the floats of c @ basis whatever the batch.
    """
    if t <= 0:
        return []
    bound = body.enumeration_quadratic_bound(t) * (1 + 1e-9)
    coords = _enumerate_quadratic(_bounding_factor(lat, body), bound, options.enumeration_cap)
    if not len(coords):
        return []
    vecs = (coords.astype(float)[:, None, :] @ lat.basis)[:, 0, :]
    gauges = body.gauge_many(vecs)
    points = [LatticePoint(tuple(c), vec, float(g))
              for c, vec, g in zip(coords.tolist(), vecs, gauges) if g <= t * (1 + 1e-12)]
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
    `enumerate_below` keeps), so no pair comes twice.  The stream ends
    after the last round; callers say what they did not find, and a
    consumer that stops early saves the later rounds.  A round that hits
    the enumeration cap raises, naming the round and its level.
    """
    # a nonzero point has |R c| >= min_i R_ii (its last nonzero coordinate is
    # at least 1 in size), and its bounding form is at most the bound at its gauge
    r = _bounding_factor(lat, body)
    t = float(np.min(np.abs(np.diag(r)))) / math.sqrt(body.enumeration_quadratic_bound(1.0))
    if t <= 0:
        raise ConditioningError("bounding form is numerically singular")
    floor = -math.inf
    for round_ in range(1, 61):
        try:
            points = enumerate_below(lat, body, t, options)
        except EnumerationCapError as exc:
            raise EnumerationCapError(
                f"minima search, round {round_} at level t={t:.6g}: {exc}") from exc
        for p in points:
            if p.gauge > floor:
                yield p
        floor = t * (1 + 1e-12)
        t *= 2


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
    the grid spacing.  Grid points are visited in decreasing order of the
    gauge to their rounded corner, in doubling batches, until that gauge
    is at most the running maximum.  A batch's nearest points come from
    one centred enumeration, each grid point within the bounding form at
    its own corner gauge (which holds the corner), so the cost is the
    resolution**dim corner gauges plus the lattice points near the few
    grid points measured.  A batch that hits the enumeration cap raises,
    naming it.  Dimensions above 4 are rejected.
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
    corner_best = body.gauge_many(grid - np.rint(fracs) @ b)
    r = _bounding_factor(red, body)

    # best <= corner_best per grid point, so once the next corner gauge is
    # at most the running maximum no later grid point can raise it
    order = np.argsort(-corner_best, kind="stable")
    lower = -math.inf
    start, size, batch = 0, 16, 0
    while start < len(order) and corner_best[order[start]] > lower:
        idx = order[start:start + size]
        batch += 1
        bounds = body.enumeration_quadratic_bound(corner_best[idx]) * (1 + 1e-9)
        try:
            coords, near = _enumerate_quadratic(r, bounds, options.enumeration_cap, fracs[idx])
        except EnumerationCapError as exc:
            raise EnumerationCapError(
                f"covering search, grid batch {batch} ({len(idx)} points, corner gauge "
                f"<= {corner_best[idx[0]]:.6g}): {exc}") from exc
        vecs = (coords.astype(float)[:, None, :] @ b)[:, 0, :]
        best = np.full(len(idx), np.inf)
        np.minimum.at(best, near, body.gauge_many(grid[idx][near] - vecs))
        lower = max(lower, float(np.max(best)))
        # later points have smaller bounds and a search visits a few nodes per
        # point found: at this batch's rate the next one finds an eighth of the cap
        per_point = -(-len(coords) // len(idx))
        start += len(idx)
        size = min(2 * size, max(16, options.enumeration_cap // (8 * per_point)))

    slack = body.lipschitz() * (0.5 / k) * float(np.sum(np.linalg.norm(b, axis=1)))
    return lower, lower + slack
