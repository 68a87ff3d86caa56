"""Adelic convex bodies: polars, successive minima, transference verdicts.

The body pairs a rank-n module (its behavior at all finite places) with
one convex body per archimedean place.  Minima are found by reading the
embedded lattice's points in gauge order (`points_by_gauge`) and keeping
those that increase the rank over K.  That rank is decided exactly on
the points' integer coordinates: the LLL transform carries them to the
module's Z-basis, where the integral basis acts by integer blocks read
from the ideals of the pseudo-basis.  Only the kept points, the
witnesses, are mapped back to exact K-vectors.  Dilation acts on the infinite places
only, so a point's minimum level is just its gauge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bodies import ProductBody
from .config import ComputeOptions, DEFAULT_OPTIONS
from .errors import ConditioningError, EnumerationCapError
from .exactla import RankTracker
from .lattices import (
    EmbeddedLattice,
    LatticePoint,
    covering_radius_bounds,
    lattice_from_module,
    points_by_gauge,
)
from .omodules import KModule, KRankTracker, KVector


class AdelicBody:
    """A module together with a convex body at every archimedean place.

    `conjugated` records which of the two mirror embeddings carries the
    module to its lattice; taking the polar flips it, so that the dual
    lattice is exactly the embedded dual module.
    """

    def __init__(self, module: KModule, infinite_part: ProductBody, conjugated: bool = False):
        if infinite_part.field is not module.field:
            raise ValueError("module and bodies live over different fields")
        if infinite_part.n != module.rank:
            raise ValueError("body rank does not match module rank")
        self.field = module.field
        self.n = module.rank
        self.finite_part = module
        self.infinite_part = infinite_part
        self.conjugated = conjugated

    def lattice(self) -> EmbeddedLattice:
        return lattice_from_module(self.finite_part, self.conjugated)

    def scaled(self, alpha: Fraction) -> "AdelicBody":
        """Dilation: touches the infinite places only."""
        return AdelicBody(self.finite_part, self.infinite_part.scaled(alpha), self.conjugated)


def adelic_polar(body: AdelicBody) -> AdelicBody:
    return AdelicBody(
        body.finite_part.trace_dual(),
        body.infinite_part.polar(),
        not body.conjugated,
    )


def adelic_equal(a: AdelicBody, b: AdelicBody) -> bool:
    """Same module, identical body parameters, same embedding side."""
    if a.conjugated != b.conjugated or a.n != b.n:
        return False
    if not a.finite_part.equals(b.finite_part):
        return False
    return all(
        pa.kind == pb.kind and pa.shape == pb.shape
        for pa, pb in zip(a.infinite_part.place_bodies, b.infinite_part.place_bodies))


@dataclass
class MinimaReport:
    minima: list[float]            # adelic minima over K, length n
    witnesses: list[KVector]       # exact preimages, K-linearly independent
    points: list[LatticePoint]     # the corresponding lattice points
    classical: list[float]         # the first (n-1)d+1 minima over R of the same lattice
    thunder_slacks: list[float]    # classical[(l-1)*d] - minima[l-1], per l


def adelic_minima(body: AdelicBody, options: ComputeOptions = DEFAULT_OPTIONS) -> MinimaReport:
    """Successive minima with exact K-independence bookkeeping.

    One pass over `points_by_gauge` feeds two exact trackers, both on
    the points' integer coordinates: the K-rank (the adelic minima; see
    `KRankTracker`) and the rank over Q (the classical minima up to
    index (n-1)d+1).  A point that raises the K-rank is a witness, and
    only witnesses get an exact preimage.  The pass stops once both
    lists are complete.  Each lambda_l <= classical[(l-1)d+1] is
    checked, which holds because a K-span of dimension l-1 has real
    dimension (l-1)d.
    """
    field = body.field
    n, d = body.n, field.degree
    target_classical = (n - 1) * d + 1
    red = body.lattice().reduced(options.lll_delta)
    ktracker = KRankTracker(body.finite_part, red.transform)
    rtracker = RankTracker(red.dim)
    minima: list[float] = []
    witnesses: list[KVector] = []
    kept: list[LatticePoint] = []
    classical: list[float] = []
    for p in points_by_gauge(red, body.infinite_part, options):
        if len(classical) < target_classical and rtracker.try_add(p.coords):
            classical.append(p.gauge)
        if len(minima) < n and ktracker.try_add(p.coords):
            minima.append(p.gauge)
            witnesses.append(red.preimage_of(p.coords))
            kept.append(p)
        if len(minima) == n and len(classical) == target_classical:
            slacks = [classical[(l - 1) * d] - minima[l - 1] for l in range(1, n + 1)]
            if any(s < -1e-9 * (1 + abs(minima[-1])) for s in slacks):
                raise ConditioningError(
                    "adelic minima exceeded their classical milestones")
            return MinimaReport(minima, witnesses, kept, classical, slacks)
    raise ConditioningError("minima search did not reach full rank over K")


def inhomogeneous_minimum(
    body: AdelicBody,
    resolution: int | None = None,
    options: ComputeOptions = DEFAULT_OPTIONS,
) -> tuple[float, float]:
    """Bracket for the covering radius of the embedded lattice in the gauge."""
    return covering_radius_bounds(body.lattice(), body.infinite_part, resolution, options)


@dataclass
class HypothesisFlags:
    totally_real: bool
    cm: bool
    cm_was_asserted: bool

    @property
    def lower_bound_applies(self) -> bool:
        return self.totally_real or self.cm


@dataclass
class TransferenceRow:
    ell: int
    lambda_s: float
    lambda_sstar: float
    product: float
    lower_verdict: str  # pass | fail | n/a
    upper_verdict: str  # pass | fail

    @property
    def verdict(self) -> str:
        if "fail" in (self.lower_verdict, self.upper_verdict):
            return "fail"
        return "pass"


@dataclass
class TransferenceReport:
    n: int
    d: int
    flags: HypothesisFlags
    lower: float | None
    upper: float
    rows: list[TransferenceRow]
    report_s: MinimaReport
    report_sstar: MinimaReport

    @property
    def passed(self) -> bool:
        return all(row.verdict == "pass" for row in self.rows)


def _side_minima(side: str, body: AdelicBody, options: ComputeOptions) -> MinimaReport:
    """`adelic_minima`, with a cap error prefixed by the side it came from."""
    try:
        return adelic_minima(body, options)
    except EnumerationCapError as exc:
        raise EnumerationCapError(f"{side}: {exc}") from exc


def transference_check(
    body: AdelicBody,
    options: ComputeOptions = DEFAULT_OPTIONS,
) -> TransferenceReport:
    """Products of dual pairs of minima against both transference bounds.

    The upper bound (nd)^(3/2) applies unconditionally; the lower bound
    |disc|^(-1/d) only for totally real or CM fields with rotation
    invariant bodies at the complex places, which the body classes
    enforce.  Inapplicable bounds yield "n/a", never "fail".
    """
    field = body.field
    n, d = body.n, field.degree
    flags = HypothesisFlags(
        totally_real=field.is_totally_real,
        cm=field.is_cm,
        cm_was_asserted=field.cm_asserted,
    )
    rep_s = _side_minima("body S", body, options)
    rep_star = _side_minima("polar S*", adelic_polar(body), options)
    upper = (n * d) ** 1.5
    lower = abs(field.discriminant) ** (-1.0 / d) if flags.lower_bound_applies else None
    tol = options.bound_tol
    rows = []
    for ell in range(1, n + 1):
        lam = rep_s.minima[ell - 1]
        lam_star = rep_star.minima[n - ell]
        product = lam * lam_star
        upper_verdict = "pass" if product <= upper + tol else "fail"
        if lower is None:
            lower_verdict = "n/a"
        else:
            lower_verdict = "pass" if product >= lower - tol else "fail"
        rows.append(TransferenceRow(ell, lam, lam_star, product, lower_verdict, upper_verdict))
    return TransferenceReport(n, d, flags, lower, upper, rows, rep_s, rep_star)


@dataclass
class MuProductReport:
    lambda1: float
    mu_bracket: tuple[float, float]
    product_bracket: tuple[float, float]
    reference: float  # nd(1 + log nd); no verdict, the constant is unquantified


def mu_product_report(
    body: AdelicBody,
    resolution: int | None = None,
    options: ComputeOptions = DEFAULT_OPTIONS,
) -> MuProductReport:
    """Bracket for lambda_1(S) * mu(S*) next to its reference value."""
    lam1 = adelic_minima(body, options).minima[0]
    star = adelic_polar(body)
    lo, hi = inhomogeneous_minimum(star, resolution, options)
    nd = body.n * body.field.degree
    return MuProductReport(
        lambda1=lam1,
        mu_bracket=(lo, hi),
        product_bracket=(lam1 * lo, lam1 * hi),
        reference=nd * (1 + math.log(nd)),
    )
