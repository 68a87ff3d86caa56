"""Embedded lattices in R^(n*d): reduction, enumeration, minima, covering radii.

A lattice (`EmbeddedLattice`) is its exact rows (M, s) under the
diagonal twisted form F: row i of M / s is basis row i's K-vector, and
the float basis is their embedding, made on its first read.  A module's
lattice starts from its Z-basis, and reduction by an integer u gives the
rows u M, embedded afresh.  `lattice_equal` decides polarity: a dual
basis pairs with the lattice's integrally and unimodularly.  All rank
decisions, over Q and over K, are integer eliminations on a point's
integer coordinates, or on their product with M; a point is mapped back
to a K-vector only when a caller keeps it (`preimage_of`: its
coordinates times M / s).  Floats only measure gauges, and enumeration
is seeded by each body's own diagonal bounding form.

LLL is one integral kernel on the Gram matrix of the exact rows (`_gram`).
It returns U^-T with U, so a lattice and its polar take one reduction
from scratch (`reduced_pair`): the other's starts from J U^-T.  The
searches below take a lattice as given and reduce nothing themselves.

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
import sys
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .bodies import ProductBody
from .errors import (ENUMERATION_CAP, RESOLUTION, ConditioningError, DimensionLimitError,
                     EnumerationCapError)
from .exactla import is_unimodular, mat_mul, mat_vec, transpose
from .numberfield import NumberField
from .omodules import KModule, KVector

LLL_DELTA = Fraction(99, 100)  # the Lovasz condition of every reduction
NARROW_ROWS = 16  # enumeration levels with fewer frontier rows run on Python floats


class EmbeddedLattice:
    """A full-rank lattice in R^(n*degree) under the twisted form, given by exact rows (M, s).

    Row i of M / s is basis row i's K-vector in flattened power-basis
    coordinates.  The basis is their embedding (`NumberField.embed_rows`),
    made on the first read; a change of basis u carries u M alone, so no
    float sum builds a basis.
    """

    def __init__(self, field: NumberField, rows: tuple[list[list[int]], int], conjugated: bool):
        self.field, self.rows, self.conjugated = field, rows, conjugated

    @cached_property
    def basis(self) -> np.ndarray:
        return self.field.embed_rows(self.rows, self.conjugated)

    @cached_property
    def form(self) -> np.ndarray:
        return self.field.twisted_form_diag(self.dim // self.field.degree)

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def reduced(self) -> "EmbeddedLattice":
        """LLL reduction under the form: the lattice transformed by one integer u."""
        return self.transformed(_lll_transform(_gram(self), inverse=False)[0])

    def transformed(self, u: list[list[int]]) -> "EmbeddedLattice":
        """The basis u B of the same lattice, u integer unimodular: the rows u M."""
        return EmbeddedLattice(self.field, (mat_mul(u, self.rows[0]), self.rows[1]),
                               self.conjugated)

    def preimage_of(self, coords: Sequence[int]) -> KVector:
        """The K-vector of the point: coords times the exact rows, in d-blocks."""
        num, s = self.rows
        flat = [Fraction(x, s) for x in mat_vec(transpose(num), coords)]
        d = self.field.degree
        return tuple(self.field.element(flat[k:k + d]) for k in range(0, len(flat), d))


def reduced_pair(lat: EmbeddedLattice, dual: EmbeddedLattice
                 ) -> tuple[EmbeddedLattice, EmbeddedLattice]:
    """LLL-reduced bases of a lattice and of its polar, one of them reduced from scratch.

    `dual`'s basis is to be the dual basis of `lat`'s, B* F B^t = I, as the
    trace dual module's Z-basis is of the module's.  When U reduces B, the
    dual basis of U B is U^-T B*; reversed, J U^-T B* has the Gram-Schmidt
    norms of U B inverted in reverse order, so it is nearly reduced, and
    the dual's LLL starts there.  Whatever `dual` holds, the second lattice
    is an LLL-reduced basis of it; the duality only makes the start good.
    The relation is symmetric, so either side may go first: the first
    lattice is reduced exactly as `reduced()` reduces it.
    """
    u, v = _lll_transform(_gram(lat))
    start = dual.transformed(v[::-1])
    w, _ = _lll_transform(_gram(start), inverse=False)
    return lat.transformed(u), start.transformed(w)


def lattice_from_module(module: KModule, conjugated: bool = False) -> EmbeddedLattice:
    """A rank-n module's lattice: exact rows its Z-basis `int_flat`, embedded place-major."""
    return EmbeddedLattice(module.field, module.int_flat, conjugated)


def lattice_equal(lat: EmbeddedLattice, dual: EmbeddedLattice) -> bool:
    """Whether `dual` spans the polar of `lat`: the pairing P = B* F B^t is integral unimodular.

    Entry ij is named an integer within 2^-26 S_ij (half the mantissa, as in
    `NumberField.reduction_form`), S_ij = w sum_k |c*_ik|_R |c_jk|_R over the rows' exact
    K-components, |c|_R = sum_t |c_t| R^t, R = max(1, |theta|), w = d + 2 r_2: an embedded
    entry's terms sum to at most |c|_R however they cancel, so S_ij / eps bounds the
    rounding of the embeddings and the product (Higham 2002, 3.5).  Where 2^-26 S reaches
    1/2, the pair is decided again on `reduced_pair`, whose bases span the same lattices.
    """
    k, d = lat.field, lat.field.degree
    powers = max(1.0, *map(abs, k.real_roots + k.complex_roots)) ** np.arange(d)
    w = np.ldexp(d + 2 * k.signature[1], -(sys.float_info.mant_dig // 2))
    for reduce in (False, True):
        a, b = reduced_pair(lat, dual) if reduce else (lat, dual)
        p = (b.basis * b.form) @ a.basis.T
        c = [(np.abs(np.array(num, dtype=object)).reshape(len(num), -1, d) / s).astype(float)
             @ powers for num, s in (b.rows, a.rows)]
        tol = w * (c[0] @ c[1].T)
        if np.max(tol) < 0.5:
            pr = np.rint(p)
            return bool(np.all(np.abs(p - pr) <= tol)) and is_unimodular(pr.astype(int).tolist())
    raise ConditioningError("pairing of the reduced lattices is too large to round")


# ---------------------------------------------------------------------------
# LLL on an integer Gram matrix


def _gram(lat: EmbeddedLattice) -> list[list[int]]:
    """M (I_n (x) H) M^t for the rows (M, s) and the field's `reduction_form` H.

    H is applied to every d-block of every row in one product, giving the
    rows H x_i.  Entry ij is (H x_i) . x_j, computed for j <= i, the entries
    `_lll_transform` reads, and mirrored above the diagonal: H is symmetric.
    """
    (num, _), d, h = lat.rows, lat.field.degree, lat.field.reduction_form
    hx = [x for b in mat_mul([r[k:k + d] for r in num for k in range(0, len(r), d)], transpose(h))
          for x in b]
    w = len(num[0])
    g = [mat_vec(num[:i + 1], hx[i * w:(i + 1) * w]) for i in range(len(num))]
    for i, row in enumerate(g):
        row.extend(g[j][i] for j in range(i + 1, len(g)))
    return g


def _lll_transform(g: list[list[int]], inverse: bool = True
                   ) -> tuple[list[list[int]], list[list[int]] | None]:
    """The integer transform U of an LLL reduction under the Gram matrix g, and U^-T or None.

    De Weger's integral LLL (Cohen, GTM 138, Alg. 2.6.7) in Schnorr-Euchner
    order: row k is size-reduced in full, by rows k-1 .. 0 and leaving
    |mu| = 1/2 as it is, before its exact Lovasz test at `LLL_DELTA`.
    Gram-Schmidt runs once: d[i] is the Gram determinant of the first i rows,
    lam[i][j] = d[j+1] mu_ij, and every division is exact.  A swap takes the
    positive integer d[1] ... d[m-1] below delta times itself, so the loop
    ends; a g not positive definite raises.  V = U^-T, if `inverse`, follows U: q
    times row j off row k of U adds q times row k of V to row j; a swap swaps both.
    """
    m = len(g)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [row[:] for row in u] if inverse else None
    d, lam = [1] * (m + 1), [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1):
            x = g[i][j]
            for k in range(j):
                x = (d[k + 1] * x - lam[i][k] * lam[j][k]) // d[k]
            lam[i][j] = d[i + 1] = x  # d[i + 1] is lam[i][i], the last x
        if not d[i + 1] > 0:
            raise ConditioningError("Gram matrix of a lattice reduction is not positive definite")
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > d[j + 1]:
                q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
                lam[k][:j] = [x - q * y for x, y in zip(lam[k], lam[j][:j])]
                lam[k][j] -= q * d[j + 1]
                u[k] = [x - q * y for x, y in zip(u[k], u[j])]
                if v:
                    v[j] = [x + q * y for x, y in zip(v[j], v[k])]
        x, num, den = lam[k][k - 1], LLL_DELTA.numerator, LLL_DELTA.denominator
        if den * (d[k + 1] * d[k - 1] + x * x) >= num * d[k] ** 2:
            k += 1
        else:
            b = (d[k - 1] * d[k + 1] + x * x) // d[k]
            for row in lam[k + 1:]:
                t = row[k]
                row[k] = (d[k + 1] * row[k - 1] - x * t) // d[k]
                row[k - 1] = (b * t + x * row[k]) // d[k + 1]
            d[k] = b
            lam[k][:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lam[k][:k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            if v:
                v[k - 1], v[k] = v[k], v[k - 1]
            k = max(k - 1, 1)
    return u, v


# ---------------------------------------------------------------------------
# enumeration


class LatticePoint(NamedTuple):
    """A point found by a search; as a tuple it orders by gauge, then coordinates."""

    gauge: float
    coords: tuple[int, ...]  # over the reduced basis used for the search


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
    if i >= 0:
        coords, root = _wide_levels(r, i, shift, frontier, nodes, cap)
    else:  # every level ran on Python floats: the frontier is the result
        coords = np.array([cs for cs, _, _ in frontier], dtype=np.int64).reshape(-1, m)
        root = np.array([k for _, _, k in frontier], dtype=np.intp)
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
    """Levels top .. 0 of `_enumerate_quadratic` on numpy columns: (coords, root)."""
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
    return sorted(LatticePoint(float(g), tuple(c))
                  for c, g in zip(coords.tolist(), gauges) if g <= t * (1 + 1e-12))


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
    """Bracket the covering radius by a grid over the fundamental cell of `lat`'s basis.

    Pass it reduced, as for `enumerate_below`: any basis gives a proven
    bracket, but the slack grows with the lengths of the basis rows.
    Grid points are corner-aligned (multiples of 1/resolution in cell
    coordinates) so that doubling the resolution refines the same grid.
    The lower end is the largest distance (in gauge) from a grid point to
    its nearest lattice point, the upper end adds the Lipschitz slack of
    the grid spacing.  The body and the lattice are centrally symmetric,
    so -x is as far from the lattice as x, and the grid {a / k} mod 1 is
    closed under a -> -a mod k: only the points with first digit
    a_0 <= k // 2, which meet every +- pair, are measured, and their
    largest distance is the whole grid's in exact arithmetic.  A grid
    point's bound is the gauge to its Babai nearest-plane lattice point.
    The 16 largest bounds go first, then the points above the maximum
    they leave, sorted once, in doubling batches until the next bound is
    at most the running maximum.  A batch's nearest points come from one
    centred enumeration, each point within the bounding form at its own
    bound, so the cost is about half the resolution**dim bound gauges
    plus the lattice points near the few grid points measured.  A batch
    that hits the enumeration cap raises, naming it.  Dimensions above 4
    are rejected, and so are grids of over 2M points, counted whole.
    """
    if lat.dim > 4:
        raise DimensionLimitError(
            "covering radius grid search is limited to lattices of dimension at most 4")
    k = RESOLUTION if resolution is None else resolution
    if k < 2:
        raise ValueError("resolution must be at least 2")
    b = lat.basis
    m = lat.dim
    if k ** m > 2_000_000:
        raise EnumerationCapError(
            f"covering grid would hold {k ** m} points; lower the resolution")

    # grid point a / k (digits a_0 <= k // 2 and a_1 .. a_m-1 < k, the last
    # fastest) and its Babai nearest-plane point c in r: c_i = rint(f_i +
    # sum_j>i r_ij / r_ii (f_j - c_j)) depends on the digits a_i .. a_m-1 alone
    r, h = _bounding_factor(lat, body), k // 2 + 1
    fracs, cs, resid = np.empty((h,) + (k,) * (m - 1) + (m,)), [None] * m, {}
    for i in range(m - 1, -1, -1):
        f = (np.arange(h if i == 0 else k) / k).reshape((-1,) + (1,) * (m - 1 - i))
        cs[i] = np.rint(f + sum(r[i, j] / r[i, i] * resid[j] for j in range(i + 1, m)))
        resid[i], fracs[..., i] = f - cs[i], f
    # the points c fill a small box: each box point's vector is the per-row
    # product a batch's search uses, so each upper bound is the gauge that
    # search measures at the nearest-plane point: best <= upper
    lo, span = [c.min() for c in cs], [int(c.max() - c.min()) + 1 for c in cs]
    box = np.indices(span).reshape(m, -1).T + lo
    key = sum((c - l) * math.prod(span[i + 1:]) for i, (c, l) in enumerate(zip(cs, lo)))
    diff = np.take((box[:, None, :] @ b)[:, 0, :], key.astype(np.intp).ravel(), axis=0)
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
            coords, near = _enumerate_quadratic(r, bounds, cap, np.take(fracs, idx, axis=0))
        except EnumerationCapError as exc:
            raise EnumerationCapError(
                f"covering search, grid batch {batch} ({len(idx)} points, nearest-plane "
                f"bound <= {upper[idx].max():.6g}): {exc}") from exc
        vecs = (coords.astype(float)[:, None, :] @ b)[:, 0, :]
        best = np.full(len(idx), np.inf)
        np.minimum.at(best, near, body.gauge_many(np.take(grid, idx[near], axis=0) - vecs))
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
