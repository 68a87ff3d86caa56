"""Adelic convex bodies: successive minima and transference verdicts.

The body (`bodies.AdelicBody`, re-exported here with the exact
`adelic_polar` and `adelic_equal`) pairs a rank-n module (its behavior
at all finite places) with one convex body per archimedean place.
Minima are found by reading the embedded lattice's points in gauge
order (`points_by_gauge`) and keeping those that increase the rank over
K.  That rank is decided exactly on the points' integer coordinates:
the reduced lattice's exact rows carry them to power-basis numerators,
whose images under theta span their K-span, and a point already in the
Q-span of the points before it is not K-tested at all; over Q, where
the K-span is the Q-span, no point is.  Only the kept
points, the witnesses, are mapped back to exact K-vectors, through the
same rows.  Dilation acts on the infinite places only, so a point's
minimum level is just its gauge.  A transference check searches S and
S* through `adelic_minima` on lattices reduced by `reduced_pair`: the
polar's Z-basis is the exact dual basis of the module's, so its LLL
starts from the primal's transform read off and only finishes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bodies import AdelicBody, adelic_equal, adelic_polar  # noqa: F401 (adelic_equal re-exported)
from .errors import ENUMERATION_CAP, ConditioningError, EnumerationCapError
from .exactla import RankTracker
from .lattices import (
    EmbeddedLattice,
    LatticePoint,
    covering_radius_bounds,
    points_by_gauge,
    reduced_pair,
)
from .omodules import KRankTracker, KVector

BOUND_TOL = 1e-6  # slack of the transference verdicts against their bounds


@dataclass
class MinimaReport:
    minima: list[float]            # adelic minima over K, length n
    witnesses: list[KVector]       # exact preimages, K-linearly independent
    points: list[LatticePoint]     # the corresponding lattice points
    classical: list[float]         # the first (n-1)d+1 minima over R of the same lattice
    thunder_slacks: list[float]    # classical[(l-1)*d] - minima[l-1], per l


def adelic_minima(body: AdelicBody, cap: int = ENUMERATION_CAP,
                  reduced: EmbeddedLattice | None = None) -> MinimaReport:
    """Successive minima with exact K-independence bookkeeping.

    The search runs on `reduced`, an LLL-reduced copy of `body.lattice()`,
    or when it is None on that lattice reduced here.

    One pass over `points_by_gauge` feeds two exact trackers, both on
    the points' integer coordinates: the rank over Q (the classical
    minima up to index (n-1)d+1) and the K-rank (the adelic minima; see
    `KRankTracker`), which over Q is the rank over Q and needs no
    tracker of its own.  Only a point that raises the Q-rank is K-tested:
    every point read so far lies in the K-span W of the witnesses so far
    (it is one, was K-rejected or was Q-rejected: by induction), and a
    Q-rejected point is in the Q-span of earlier points, so in W.  So
    every witness is a classical point, and only witnesses get an exact
    preimage.  The pass ends when the classical list is complete: its
    (n-1)d+1 Q-independent points exceed the real dimension (n-1)d of a
    proper K-subspace, so W is K^n and the minima are complete too.  By
    the same count lambda_l <= classical[(l-1)d+1], which is checked.
    """
    field = body.field
    n, d = body.n, field.degree
    target_classical = (n - 1) * d + 1
    red = body.lattice().reduced() if reduced is None else reduced
    # over Q a point's K-span is its Q-span, so the Q decision is the K decision
    ktracker = KRankTracker(field, red.rows) if d > 1 else None
    rtracker = RankTracker(red.dim)
    minima: list[float] = []
    witnesses: list[KVector] = []
    kept: list[LatticePoint] = []
    classical: list[float] = []
    for p in points_by_gauge(red, body.infinite_part, target_classical, cap):
        if not rtracker.try_add(p.coords):
            continue  # in the Q-span of earlier points, so in the K-span of the witnesses
        classical.append(p.gauge)
        if len(minima) < n and (ktracker is None or ktracker.try_add(p.coords)):
            minima.append(p.gauge)
            witnesses.append(red.preimage_of(p.coords))
            kept.append(p)
        if len(classical) == target_classical:
            if len(minima) < n:
                raise ConditioningError("classical minima complete below full rank over K")
            slacks = [classical[(l - 1) * d] - minima[l - 1] for l in range(1, n + 1)]
            if any(s < -1e-9 * (1 + abs(minima[-1])) for s in slacks):
                raise ConditioningError(
                    "adelic minima exceeded their classical milestones")
            return MinimaReport(minima, witnesses, kept, classical, slacks)
    raise ConditioningError("minima search did not reach full rank over K")


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


def _side_minima(side: str, body: AdelicBody, cap: int, red: EmbeddedLattice) -> MinimaReport:
    """`adelic_minima` on `red`, with a cap error prefixed by the side it came from."""
    try:
        return adelic_minima(body, cap, red)
    except EnumerationCapError as exc:
        raise EnumerationCapError(f"{side}: {exc}") from exc


def transference_check(body: AdelicBody, cap: int = ENUMERATION_CAP) -> TransferenceReport:
    """Products of dual pairs of minima against both transference bounds.

    The upper bound (nd)^(3/2) applies unconditionally; the lower bound
    |disc|^(-1/d) only for totally real or CM fields with rotation
    invariant bodies at the complex places, which the body classes
    enforce.  Inapplicable bounds yield "n/a", never "fail".
    One LLL runs from scratch: the polar's starts from the primal's
    transform read off (`reduced_pair`).
    """
    field = body.field
    n, d = body.n, field.degree
    flags = HypothesisFlags(
        totally_real=field.is_totally_real,
        cm=field.is_cm,
        cm_was_asserted=field.cm_asserted,
    )
    star = adelic_polar(body)
    red, red_star = reduced_pair(body.lattice(), star.lattice())
    rep_s = _side_minima("body S", body, cap, red)
    rep_star = _side_minima("polar S*", star, cap, red_star)
    upper = (n * d) ** 1.5
    lower = abs(field.discriminant) ** (-1.0 / d) if flags.lower_bound_applies else None
    rows = []
    for ell in range(1, n + 1):
        lam = rep_s.minima[ell - 1]
        lam_star = rep_star.minima[n - ell]
        product = lam * lam_star
        upper_verdict = "pass" if product <= upper + BOUND_TOL else "fail"
        lower_verdict = ("n/a" if lower is None
                         else "pass" if product >= lower - BOUND_TOL else "fail")
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
    cap: int = ENUMERATION_CAP,
) -> MuProductReport:
    """Bracket for lambda_1(S) * mu(S*); the k = 1 stream yields lambda_1 by its last level.

    One LLL runs from scratch, on the polar, whose basis the covering grid
    follows (`reduced_pair`, polar first); the primal's only finishes it.
    """
    star = adelic_polar(body)
    red_star, red = reduced_pair(star.lattice(), body.lattice())
    lam1 = next(points_by_gauge(red, body.infinite_part, 1, cap)).gauge
    lo, hi = covering_radius_bounds(red_star, star.infinite_part, resolution, cap)
    nd = body.n * body.field.degree
    return MuProductReport(
        lambda1=lam1,
        mu_bracket=(lo, hi),
        product_bracket=(lam1 * lo, lam1 * hi),
        reference=nd * (1 + math.log(nd)),
    )
