"""Embedded lattices in R^(n*d): reduction, enumeration, minima, covering radii.

A lattice carries the diagonal twisted form F and a float basis (rows).
A module's lattice holds exact rows (M, s) instead: row i of M / s is
basis row i's K-vector, and the basis is their embedding, made on its
first read.  It starts from the Z-basis, and reduction by an integer u
gives the rows u M, embedded afresh.  All rank decisions, over Q and
over K, are integer eliminations on a point's integer coordinates, or on
their product with M; a point is mapped back to a K-vector only when a
caller keeps it (`preimage_of`: its coordinates times M / s).  Floats
only measure gauges, and enumeration is seeded by each body's own
diagonal bounding form.

LLL is the Schnorr-Euchner reduction on Python floats: one Gram-Schmidt
row per arrival at a row, and mu updated in place by size reduction.
It returns U^-T with U, so a lattice and its polar take one reduction
from scratch (`reduced_pair`): the polar's starts from J U^-T.

One enumeration engine expands a frontier level by level, around the
origin for minima and around many grid points at once for covering
radii; it gives the floats of a depth-first recursion bit for bit.  A
level that starts with fewer than `NARROW_ROWS` = 16 rows runs on
Python floats, the first wider level and all after it on numpy columns:
a numpy level costs about 35-65 us whatever its width, a Python level
about 2 us per row, and they cross near 25 rows at nd 4, 32 at nd 9 and
40 at nd 16 (shared 2-vCPU Xeon, Python 3.11, numpy 2.4).  A covering
batch starts with 16 targets, so it runs on numpy throughout.

This module is where the float layer starts: it imports numpy, and
`adelic` imports it when a search or an embedding asks for it (through
the package's `__getattr__`, or a CLI command that reaches floats), or
at once in a process that has imported numpy already.  The default
budgets `ENUMERATION_CAP` and `RESOLUTION` live in the numpy-free
`errors` and are re-exported here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .bodies import ProductBody
from .errors import (ENUMERATION_CAP, RESOLUTION, ConditioningError, DimensionLimitError,
                     EnumerationCapError)
from .exactla import is_unimodular, mat_mul, mat_vec, transpose
from .numberfield import NumberField
from .omodules import KModule, KVector

LLL_DELTA = 0.99  # the Lovasz condition of every reduction
EQUAL_TOL = 1e-8  # entrywise slack of `lattice_equal` on the change of basis
NARROW_ROWS = 16  # enumeration levels with fewer frontier rows run on Python floats


class EmbeddedLattice:
    """Full-rank lattice in R^(n*degree) under the twisted form, given by its float rows.

    It has no exact rows and no preimages; a module's lattice is an `ExactLattice`.
    """

    rows: tuple[list[list[int]], int] | None = None

    def __init__(self, field: NumberField, basis: np.ndarray, conjugated: bool = False):
        basis = np.asarray(basis, dtype=float)
        m = basis.shape[0]
        if basis.shape != (m, m):
            raise ValueError("lattice basis must be square and full rank")
        if m % field.degree:
            raise ValueError("lattice dimension must be a multiple of the field degree")
        self.field, self.basis, self.conjugated = field, basis, conjugated

    @cached_property
    def form(self) -> np.ndarray:
        return self.field.twisted_form_diag(self.dim // self.field.degree)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduced(self) -> "EmbeddedLattice":
        """LLL reduction under the form: the lattice transformed by one integer u."""
        return self.transformed(_lll_transform(self.basis * np.sqrt(self.form), LLL_DELTA)[0])

    def transformed(self, u: list[list[int]]) -> "EmbeddedLattice":
        """The basis u B of the same lattice, u integer unimodular."""
        return EmbeddedLattice(self.field, np.array(u, dtype=float) @ self.basis, self.conjugated)

    def preimage_of(self, coords: Sequence[int]) -> KVector | None:
        """The K-vector of the point: coords times the exact rows, in d-blocks."""
        if self.rows is None:
            return None
        num, s = self.rows
        flat = [Fraction(x, s) for x in mat_vec(transpose(num), coords)]
        d = self.field.degree
        return tuple(self.field.element(flat[k:k + d]) for k in range(0, len(flat), d))


class ExactLattice(EmbeddedLattice):
    """A lattice given by exact rows (M, s): row i of M / s is basis row i's K-vector.

    The K-vectors are flattened power-basis coordinates.  The basis is
    their embedding (`NumberField.embed_rows`), made on the first read; a
    change of basis u carries u M alone, so no float sum builds a basis.
    """

    def __init__(self, field: NumberField, rows: tuple[list[list[int]], int], conjugated: bool):
        self.field, self.rows, self.conjugated = field, rows, conjugated

    @cached_property
    def basis(self) -> np.ndarray:
        return self.field.embed_rows(self.rows, self.conjugated)

    def transformed(self, u: list[list[int]]) -> "ExactLattice":
        return ExactLattice(self.field, (mat_mul(u, self.rows[0]), self.rows[1]), self.conjugated)


def reduced_pair(lat: EmbeddedLattice, dual: EmbeddedLattice
                 ) -> tuple[EmbeddedLattice, EmbeddedLattice]:
    """LLL-reduced bases of a lattice and of its polar, one of them reduced from scratch.

    `dual`'s basis is to be the dual basis of `lat`'s, B* F B^t = I, as the
    trace dual module's Z-basis is of the module's.  When U reduces B, the
    dual basis of U B is U^-T B*; reversed, J U^-T B* has the Gram-Schmidt
    norms of U B inverted in reverse order, so it is nearly reduced, and
    the dual's LLL starts there.  Whatever `dual` holds, the second lattice
    is an LLL-reduced basis of it; the duality only makes the start good.
    Of an exact `dual` only that start and the reduced basis are embedded.
    """
    u, v = _lll_transform(lat.basis * np.sqrt(lat.form), LLL_DELTA)
    start = dual.transformed(v[::-1])
    w, _ = _lll_transform(start.basis * np.sqrt(start.form), LLL_DELTA)
    return lat.transformed(u), start.transformed(w)


def lattice_from_module(module: KModule, conjugated: bool = False) -> ExactLattice:
    """A rank-n module's lattice: exact rows its Z-basis `int_flat`, embedded place-major."""
    return ExactLattice(module.field, module.int_flat, conjugated)


def polar_lattice(lat: EmbeddedLattice) -> EmbeddedLattice:
    """Dual basis rows B* with B* diag(F) B^T = I, numeric (no preimages)."""
    gram = (lat.basis * lat.form) @ lat.basis.T
    if not np.linalg.cond(gram) < 1 / np.finfo(float).eps:  # a solve would keep no digit
        raise ConditioningError("Gram matrix of the polar lattice is numerically singular")
    dual = np.linalg.solve(gram, lat.basis)
    return EmbeddedLattice(lat.field, dual, not lat.conjugated)


def lattice_equal(a: EmbeddedLattice, b: EmbeddedLattice) -> bool:
    """Same lattice up to an integer unimodular change of basis."""
    if a.dim != b.dim:
        return False
    if not np.linalg.cond(b.basis) < 1 / np.finfo(float).eps:
        raise ConditioningError("basis of the compared lattice is numerically singular")
    c = a.basis @ np.linalg.inv(b.basis)
    cr = np.rint(c)
    if np.max(np.abs(c - cr)) > EQUAL_TOL:
        return False
    if not is_unimodular([[int(x) for x in row] for row in cr]):
        return False
    scale = max(1.0, float(np.max(np.abs(a.basis))))
    return float(np.max(np.abs(cr @ b.basis - a.basis))) <= EQUAL_TOL * scale


# ---------------------------------------------------------------------------
# LLL on float rows (plain Euclidean form; callers pre-scale for the twist)


def _lll_transform(b: np.ndarray, delta: float) -> tuple[list[list[int]], list[list[int]]]:
    """The integer transform U of an LLL reduction of the rows of b, and U^-T.

    Schnorr-Euchner (1994) floating-point LLL on Python floats.  Row k of
    Gram-Schmidt is computed once, when the loop arrives at k (row 0 too,
    after a swap that leaves k at 1).  Size reduction by row j leaves b*_k
    and |b*_k|^2 as they are and updates mu in place; row k is recomputed,
    and the pass repeated, only after a pass that used a coefficient
    |r| > 2^26, half the float mantissa.  V = U^-T follows each step
    inverted: row k minus r times row j of U adds r times row k of V to
    row j, and a swap of two rows of U swaps the same rows of V.
    """
    m = len(b)
    b = b.tolist()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [row[:] for row in u]
    bstar, norms, mu = [[]] * m, [0.0] * m, [[0.0] * m for _ in range(m)]

    def gram_schmidt_row(i: int):
        v = b[i]
        for j in range(i):
            c = mu[i][j] = sum(map(operator.mul, b[i], bstar[j])) / norms[j]
            v = [x - c * y for x, y in zip(v, bstar[j])]
        bstar[i], norms[i] = v, sum(x * x for x in v)
        if not norms[i] > 0:
            raise ConditioningError("float precision ran out in lattice reduction")

    gram_schmidt_row(0)
    k, guard = 1, 0
    while k < m:
        mu_k, large = mu[k], True
        while large:
            guard += 1
            if guard > 100000:
                raise ConditioningError("reduction failed to terminate")
            gram_schmidt_row(k)
            large = False
            for j in range(k - 1, -1, -1):
                if abs(mu_k[j]) > 0.5:
                    r = round(mu_k[j])
                    large = large or abs(r) > 1 << 26
                    b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                    u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                    v[j] = [x + r * y for x, y in zip(v[j], v[k])]
                    mu_k[:j] = [x - r * y for x, y in zip(mu_k[:j], mu[j])]
                    mu_k[j] -= r
        if norms[k] >= (delta - mu_k[k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k], u[k - 1], u[k] = b[k], b[k - 1], u[k], u[k - 1]
            v[k - 1], v[k] = v[k], v[k - 1]
            if k == 1:
                gram_schmidt_row(0)
            k = max(k - 1, 1)
    return u, v


# ---------------------------------------------------------------------------
# enumeration


@dataclass
class LatticePoint:
    coords: tuple[int, ...]  # over the reduced basis used for the search
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
    a level that would take the count past `cap` is never built.  A level
    that starts with fewer than `NARROW_ROWS` rows is expanded on Python
    floats (`_narrow_level`), a wider one and every level after it on
    numpy columns; both give the same floats, rows and order (children by
    parent, then ascending c_i).

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
    bounds = np.array(bound if centred else [bound], dtype=float)
    # the narrow frontier: one (c_i+1 .. c_m-1, remaining bound, root) per row
    frontier = [((), b, k) for k, b in enumerate(bounds.tolist())]
    nodes, i = 0, m - 1
    while i >= 0 and len(frontier) < NARROW_ROWS:
        try:
            frontier, nodes = _narrow_level(r, i, shift, frontier, nodes, cap)
        except (OverflowError, ValueError):  # a range that is not finite: numpy decides it
            break
        i -= 1
    coords, root = _wide_levels(r, i, shift, frontier, nodes, cap)
    if centred:
        return coords, root
    # the zero vector stays first; flip each pair to its first-nonzero-positive member
    coords = coords[1:]
    first = coords[np.arange(len(coords)), np.argmax(coords != 0, axis=1)]
    coords *= np.where(first < 0, -1, 1)[:, None]
    return coords


def _cap_error(cap: int) -> EnumerationCapError:
    return EnumerationCapError(f"enumeration would visit more than {cap} nodes; "
                               "raise the cap or shrink the search radius")


def _narrow_level(r, i, shift, frontier, nodes, cap):
    """Level i of `_enumerate_quadratic` on Python floats, row by row as the numpy level."""
    ri, rii = r[i, i + 1:].tolist(), float(r[i, i])
    ranges = []
    for row, (cs, rem, k) in enumerate(frontier):
        s = -float(shift[k, i]) if shift is not None else 0.0
        for rij, cj in zip(ri, cs):
            s = s + rij * cj
        rad = math.sqrt(max(rem, 0.0))
        lo = math.ceil((-s - rad) / rii - 1e-12)
        hi = math.floor((-s + rad) / rii + 1e-12)
        if shift is None and row == 0:
            lo = 0  # row 0 is the all-zero prefix: its range is symmetric, keep c_i >= 0
        nodes += max(hi - lo + 1, 0)
        ranges.append((s, lo, hi))
    if not nodes <= cap:
        raise _cap_error(cap)
    children = []
    for (cs, rem, k), (s, lo, hi) in zip(frontier, ranges):
        for c in range(lo, hi + 1):
            val = (rii * c + s) ** 2  # libm pow, as np.float_power
            if val <= rem + 1e-12:
                children.append(((c,) + cs, rem - val, k))
    return children, nodes


def _wide_levels(r, top, shift, frontier, nodes, cap):
    """Levels top .. 0 of `_enumerate_quadratic` on numpy columns: (coords, root).

    With top = -1 no level is left, and the frontier is returned as arrays.
    """
    m = r.shape[0]
    remaining = np.array([rem for _, rem, _ in frontier], dtype=float)
    root = np.array([k for _, _, k in frontier], dtype=np.intp)
    # one array per coordinate top+1 .. m-1, the lower ones being zero
    cols = list(np.array([cs for cs, _, _ in frontier], dtype=np.int64)
                .reshape(len(frontier), m - 1 - top).T)
    for i in range(top, -1, -1):
        s = -shift[root, i] if shift is not None else np.zeros(len(remaining))
        for j in range(i + 1, m):
            s = s + r[i, j] * cols[j - i - 1]
        rad = np.sqrt(np.maximum(remaining, 0.0))
        lo = np.ceil((-s - rad) / r[i, i] - 1e-12)
        hi = np.floor((-s + rad) / r[i, i] + 1e-12)
        if shift is None:
            # row 0 is the all-zero prefix: its range is symmetric, keep c_i >= 0
            lo[0] = 0.0
        counts = np.maximum(hi - lo + 1, 0)
        nodes += float(np.sum(counts))
        if not nodes <= cap:
            raise _cap_error(cap)
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
    return coords, root


def enumerate_below(
    lat: EmbeddedLattice,
    body: ProductBody,
    t: float,
    cap: int = ENUMERATION_CAP,
    factor: np.ndarray | None = None,
) -> list[LatticePoint]:
    """All nonzero lattice points of gauge <= t, one per +- pair, sorted.

    The lattice must already be reduced; completeness comes from the
    bounding ellipsoid of the body, whose Cholesky factor on the lattice
    (`_bounding_factor`) a caller searching at several levels passes as
    `factor`, so that it is computed once.  The representative of a pair
    is the one whose first nonzero coordinate is positive, and the list is
    ordered by (gauge, coordinates).  Gauges are measured on one stacked
    product, row by row the floats of c @ basis whatever the batch.
    """
    if t <= 0:
        return []
    if factor is None:
        factor = _bounding_factor(lat, body)
    bound = body.enumeration_quadratic_bound(t) * (1 + 1e-9)
    coords = _enumerate_quadratic(factor, bound, cap)
    if not len(coords):
        return []
    vecs = (coords.astype(float)[:, None, :] @ lat.basis)[:, 0, :]
    gauges = body.gauge_many(vecs)
    points = [LatticePoint(tuple(c), float(g))
              for c, g in zip(coords.tolist(), gauges) if g <= t * (1 + 1e-12)]
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
    k: int,
    cap: int = ENUMERATION_CAP,
) -> Iterator[LatticePoint]:
    """Nonzero points of a reduced lattice in nondecreasing (gauge, coords) order.

    One point per +- pair, as in `enumerate_below`, through the k-th
    minimum, whose level is bracketed: k independent points cannot all
    lie in the span of the first k-1 basis rows, so one has
    |R c|^2 >= R_jj^2 for some j >= k-1, and that
    is at most the body's bound at its gauge; the k basis rows of least
    gauge are independent, so lambda_k is at most the k-th of them, top.
    The levels are top / g**J, ..., top / g, top with g = min(2, 2^(4/m))
    (a round covers at most 16 times the volume of the one before) and
    the first level the lowest at or above the lower end, within the
    range of 60 doublings.  A minimum in the bracket is found at the
    first level at or above it, below g times its value, and the last
    level is top, where all k are found, so the stream ends there.
    Each round yields only the points above the previous level (with
    the 1e-12 slack `enumerate_below` keeps), so no pair comes twice;
    every round searches with the bounding factor the bracket used.  A
    round that hits the enumeration cap raises, naming round and level.
    """
    r = _bounding_factor(lat, body)
    lower = float(np.min(np.abs(np.diag(r))[k - 1:])) / math.sqrt(
        body.enumeration_quadratic_bound(1.0))
    top = float(np.sort(body.gauge_many(lat.basis))[k - 1])
    g = min(2.0, 2.0 ** (4.0 / lat.dim))
    steps = 0
    while steps + 1 < math.ceil(60 / math.log2(g)) and top / g ** (steps + 1) >= lower:
        steps += 1
    floor = -math.inf
    for round_, j in enumerate(range(steps, -1, -1), 1):
        t = top / g ** j
        try:
            points = enumerate_below(lat, body, t, cap, r)
        except EnumerationCapError as exc:
            raise EnumerationCapError(
                f"minima search, round {round_} at level t={t:.6g}: {exc}") from exc
        for p in points:
            if p.gauge > floor:
                yield p
        floor = t * (1 + 1e-12)


# ---------------------------------------------------------------------------
# covering radius


def covering_radius_bounds(
    lat: EmbeddedLattice,
    body: ProductBody,
    resolution: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> tuple[float, float]:
    """Bracket the covering radius by a grid over the fundamental cell.

    Grid points are corner-aligned (multiples of 1/resolution in cell
    coordinates) so that doubling the resolution refines the same grid.
    The lower end is the largest distance (in gauge) from a grid point to
    its nearest lattice point, the upper end adds the Lipschitz slack of
    the grid spacing.  A grid point's bound is the gauge to its Babai
    nearest-plane lattice point.  The 16 largest bounds go first, then
    the points above the maximum they leave, sorted once, in doubling
    batches until the next bound is at most the running maximum.  A
    batch's nearest points come from one centred enumeration, each point
    within the bounding form at its own bound, so the cost is the
    resolution**dim bound gauges plus the lattice points near the few
    grid points measured.  A batch that hits the enumeration cap raises,
    naming it.  Dimensions above 4 are rejected.
    """
    if lat.dim > 4:
        raise DimensionLimitError(
            "covering radius grid search is limited to lattices of dimension at most 4")
    k = RESOLUTION if resolution is None else resolution
    if k < 2:
        raise ValueError("resolution must be at least 2")
    red = lat.reduced()
    b = red.basis
    m = red.dim
    if k ** m > 2_000_000:
        raise EnumerationCapError(
            f"covering grid would hold {k ** m} points; lower the resolution")

    # grid point a / k (digits a_0 .. a_m-1, the last fastest) and its Babai
    # nearest-plane point c in r: c_i = rint(f_i + sum_j>i r_ij / r_ii (f_j - c_j))
    # depends on the digits a_i .. a_m-1 alone
    r = _bounding_factor(red, body)
    fracs, cs, resid = np.empty((k,) * m + (m,)), [None] * m, {}
    for i in range(m - 1, -1, -1):
        f = (np.arange(k) / k).reshape((k,) + (1,) * (m - 1 - i))
        cs[i] = np.rint(f + sum(r[i, j] / r[i, i] * resid[j] for j in range(i + 1, m)))
        resid[i], fracs[..., i] = f - cs[i], f
    # the points c fill a small box: each box point's vector is the per-row
    # product a batch's search uses, so each upper bound is the gauge that
    # search measures at the nearest-plane point: best <= upper
    lo, span = [c.min() for c in cs], [int(c.max() - c.min()) + 1 for c in cs]
    box = np.indices(span).reshape(m, -1).T + lo
    key = sum((c - l) * math.prod(span[i + 1:]) for i, (c, l) in enumerate(zip(cs, lo)))
    diff = (box[:, None, :] @ b)[:, 0, :][key.astype(np.intp).ravel()]
    del cs, resid, key
    fracs = fracs.reshape(-1, m)
    grid = fracs @ b
    upper = body.gauge_many(np.subtract(grid, diff, out=diff))

    # once the next bound is at most the running maximum no later grid point
    # can raise it: the 16 largest go first, then the points above the maximum
    order = np.argpartition(-upper, min(16, len(upper)) - 1)[:16]
    lower = -math.inf
    start, size, batch = 0, 16, 0
    while start < len(order) and upper[order[start]] > lower:
        idx = order[start:start + size]
        batch += 1
        bounds = body.enumeration_quadratic_bound(upper[idx]) * (1 + 1e-9)
        try:
            coords, near = _enumerate_quadratic(r, bounds, cap, fracs[idx])
        except EnumerationCapError as exc:
            raise EnumerationCapError(
                f"covering search, grid batch {batch} ({len(idx)} points, nearest-plane "
                f"bound <= {upper[idx].max():.6g}): {exc}") from exc
        vecs = (coords.astype(float)[:, None, :] @ b)[:, 0, :]
        best = np.full(len(idx), np.inf)
        np.minimum.at(best, near, body.gauge_many(grid[idx][near] - vecs))
        lower = max(lower, float(np.max(best)))
        # later points have smaller bounds and a search visits a few nodes per
        # point found: at this batch's rate the next one finds an eighth of the cap
        per_point = -(-len(coords) // len(idx))
        start += len(idx)
        size = min(2 * size, max(16, cap // (8 * per_point)))
        if batch == 1:
            above = upper > lower
            above[order] = False
            rest = np.flatnonzero(above)
            order = np.concatenate([order, rest[np.argsort(-upper[rest], kind="stable")]])

    slack = body.lipschitz() * (0.5 / k) * float(np.sum(np.linalg.norm(b, axis=1)))
    return lower, lower + slack
