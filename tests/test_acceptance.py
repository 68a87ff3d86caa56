"""Acceptance suite: every shipped guarantee, one printed verdict line each.

Each test exercises one end-to-end guarantee at its stated tolerance and
prints a single `ACCEPTANCE <k> <name>: PASS|FAIL` line, so the suite
output doubles as a checklist.  Randomized parts are seeded and the
brute-force oracles are computed independently inside this file.
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from adelic import (
    AdelicBody,
    Ball,
    Box,
    CrossPolytope,
    Ellipsoid,
    PlaceBody,
    ProductBody,
    adelic_equal,
    adelic_minima,
    adelic_polar,
    covering_radius_bounds,
    enumerate_below,
    lattice_equal,
    lattice_from_module,
    module_from_matrix,
    parse_scenario,
    preset_field,
    rational_field,
    standard_module,
    transference_check,
    uniform_ball_body,
)
from adelic.cli import load_scenario_text
from field_reference import circumradii, classical_minima, rational_flat

F = Fraction

QUADRATIC_PRESETS = ("Q_sqrt2", "Q_sqrt5", "Q_i", "Q_sqrt-3")
ALL_PRESETS = ("Q",) + QUADRATIC_PRESETS


def report(index: int, name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {index} {name}: {'PASS' if ok else 'FAIL'}{tail}"
    # write past pytest's capture so the checklist shows up in plain runs
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, f"criterion {index} ({name}) failed: {detail}"


# -- 1: worked example over Q(sqrt 2) ----------------------------------------


def test_criterion_1_worked_example():
    t0 = time.perf_counter()
    body = parse_scenario(load_scenario_text("Q_sqrt2")).build()
    k = body.field

    ok = k.discriminant == 8
    dual = body.finite_part.trace_dual()
    flat = sorted(tuple(row) for row in rational_flat(dual))
    ok &= flat == [(F(0), F(1, 4)), (F(1, 2), F(0))]

    lam1 = adelic_minima(body).minima[0]
    lam1s = adelic_minima(adelic_polar(body)).minima[0]
    ok &= abs(lam1 - 1.0) < 1e-9
    ok &= abs(lam1s - math.sqrt(2) / 4) < 1e-9
    ok &= abs(lam1 * lam1s - 8 ** -0.5) < 1e-9

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(1, "worked example reproduction", ok,
           f"lambda1={lam1:.12g} lambda1*={lam1s:.12g} {elapsed:.2f}s")


# -- 2: duality identities ----------------------------------------------------


def random_invertible_kmatrix(field, rng):
    """2x2 matrix over the field, entry coords with |num|, den <= 3."""
    def entry():
        coords = [F(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in range(field.degree)]
        return field.element(coords)

    while True:
        a = [[entry() for _ in range(2)] for _ in range(2)]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        if not det.is_zero():
            return a


def test_criterion_2_duality_identities():
    t0 = time.perf_counter()
    rng = random.Random(2)
    bad = []
    for name in ALL_PRESETS:
        k = preset_field(name)
        mod = standard_module(k, 1)
        primal = lattice_from_module(mod)
        mirrored = lattice_from_module(mod.trace_dual(), conjugated=True)
        if not lattice_equal(primal, mirrored):
            bad.append(f"{name} rank 1")
    for name in QUADRATIC_PRESETS:
        k = preset_field(name)
        for trial in range(5):
            mod = module_from_matrix(k, random_invertible_kmatrix(k, rng))
            primal = lattice_from_module(mod)
            mirrored = lattice_from_module(mod.trace_dual(), conjugated=True)
            if not lattice_equal(primal, mirrored):
                bad.append(f"{name} rank 2 trial {trial}")
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    report(2, "polar lattice equals mirrored dual module", ok,
           f"25 instances, {elapsed:.2f}s" + (f"; failed: {bad}" if bad else ""))


# -- 3: bilinear form identity ------------------------------------------------


def test_criterion_3_bilinear_identity():
    rng = random.Random(3)
    worst = 0.0
    for name in ALL_PRESETS:
        k = preset_field(name)
        diag = k.twisted_form_diag(1)
        for _ in range(200):
            xc = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k.degree)]
            yc = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k.degree)]
            x, y = k.element(xc), k.element(yc)
            lhs = float((x * y).trace())
            rhs = float(np.sum(diag * k.embed_vector([x]) * k.embed_vector([y], conjugated=True)))
            worst = max(worst, abs(lhs - rhs) / (1 + abs(lhs)))
    ok = worst < 1e-9
    report(3, "trace pairing equals twisted scalar product", ok,
           f"1000 pairs, worst relative gap {worst:.2e}")


# -- 4 and 5: transference bounds on a randomized suite ------------------------


def random_radius(rng) -> Fraction:
    return F(rng.randint(2, 8), 4)  # in [1/2, 2]


def random_suite_body(field, n, rng, balls_only=False) -> AdelicBody:
    place_bodies = []
    for (kind, _), dim in zip(field.places, field.place_dims(n)):
        if kind == "complex" or balls_only or rng.random() < 0.5:
            shape = Ball(random_radius(rng))
        else:
            shape = Box(tuple(random_radius(rng) for _ in range(dim)))
        place_bodies.append(PlaceBody(kind, dim, shape))
    return AdelicBody(standard_module(field, n),
                      ProductBody(field, n, place_bodies))


def test_criterion_4_upper_transference_bound():
    rng = random.Random(4)
    violations = []
    count = 0
    for name in QUADRATIC_PRESETS:
        k = preset_field(name)
        for n in (1, 2):
            bound = (n * k.degree) ** 1.5 + 1e-6
            for trial in range(10):
                body = random_suite_body(k, n, rng)
                rep = transference_check(body)
                count += len(rep.rows)
                for row in rep.rows:
                    if row.product > bound or row.upper_verdict != "pass":
                        violations.append((name, n, trial, row.ell, row.product))
    report(4, "upper transference bound (nd)^(3/2)", not violations,
           f"{count} products checked" +
           (f"; violations: {violations}" if violations else ""))


def test_criterion_5_lower_transference_bound():
    rng = random.Random(5)
    violations = []
    count = 0
    cases = [("Q", False), ("Q_sqrt2", False), ("Q_sqrt5", False),
             ("Q_i", True), ("Q_sqrt-3", True)]
    for name, balls_only in cases:
        k = preset_field(name)
        lower = abs(k.discriminant) ** (-1.0 / k.degree) - 1e-6
        for n in (1, 2):
            for trial in range(10):
                body = random_suite_body(k, n, rng, balls_only=balls_only)
                rep = transference_check(body)
                count += len(rep.rows)
                for row in rep.rows:
                    if row.product < lower or row.lower_verdict != "pass":
                        violations.append((name, n, trial, row.ell, row.product))
    report(5, "lower transference bound |disc|^(-1/d)", not violations,
           f"{count} products checked" +
           (f"; violations: {violations}" if violations else ""))


# -- 6: classical transference over Q ------------------------------------------


def random_integral_module(q, m, rng, bound=3):
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(m)]
        det = np.linalg.det(np.array(rows, dtype=float))
        if abs(det) > 0.5:
            return module_from_matrix(q, [[q.from_rational(x) for x in row] for row in rows])


def test_criterion_6_classical_reduction():
    q = rational_field()
    rng = random.Random(6)
    violations = []
    for m in (2, 3, 4):
        body = ProductBody(q, m, [PlaceBody("real", m, Ball(F(1)))])
        hi = m ** 1.5 + 1e-6
        for trial in range(20):
            # the polar lattice is the mirror-embedded dual module (criterion 2)
            mod = random_integral_module(q, m, rng)
            lat, dual = lattice_from_module(mod), lattice_from_module(mod.trace_dual(), True)
            lam = [p.gauge for p in classical_minima(lat, body)]
            lam_dual = [p.gauge for p in classical_minima(dual, body)]
            for i in range(m):
                prod = lam[i] * lam_dual[m - i - 1]
                if not (1 - 1e-6 <= prod <= hi):
                    violations.append((m, trial, i + 1, prod))
    report(6, "classical transference products over Q", not violations,
           "60 lattices, dims 2-4" +
           (f"; violations: {violations}" if violations else ""))


# -- 7: enumeration against an independent brute-force oracle ------------------


def oracle_points_below(lat, body, t):
    """Exhaustive integer-coordinate box enumeration, written from scratch.

    A box of coordinate radius t * circumradius * ||B^-1||_2 is guaranteed
    to contain every coordinate vector of a point with gauge <= t, so
    filtering the full box is a complete (if slow) enumeration.
    """
    m = lat.dim
    circ = math.sqrt(sum(r * r for r in circumradii(body)))
    radius = int(math.ceil(
        t * circ * np.linalg.norm(np.linalg.inv(lat.basis), 2))) + 1
    grids = np.meshgrid(*[np.arange(-radius, radius + 1)] * m, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    coords = coords[np.any(coords != 0, axis=1)]
    keep = []
    gauges = body.gauge_many((coords.astype(float)[:, None, :] @ lat.basis)[:, 0, :])
    for c, g in zip(coords, gauges):
        if g <= t * (1 + 1e-12):
            first = next(x for x in c if x != 0)
            if first > 0:
                keep.append((tuple(int(x) for x in c), float(g)))
    keep.sort(key=lambda cg: (cg[1], cg[0]))
    return keep, radius


def oracle_milestone_gauges(points, m):
    """Greedy successive minima from a sorted point list, exact elimination."""
    pivots = []  # (pivot index, reduced row) pairs
    out = []
    for coords, gauge in points:
        vec = [F(c) for c in coords]
        for pidx, row in pivots:
            if vec[pidx]:
                f = vec[pidx] / row[pidx]
                vec = [a - f * b for a, b in zip(vec, row)]
        pivot = next((i for i, v in enumerate(vec) if v), None)
        if pivot is not None:
            pivots.append((pivot, vec))
            out.append(gauge)
            if len(out) == m:
                break
    return out


def test_criterion_7_oracle_equivalence():
    q = rational_field()
    rng = random.Random(7)
    shapes = {
        2: [Ball(F(1)), Box((F(1), F(1, 2))), CrossPolytope((F(1), F(2)))],
        3: [Ball(F(1)), Box((F(1), F(1), F(2)))],
        4: [Ball(F(1))],
    }
    checked = 0
    mismatches = []
    trials = [2] * 20 + [3] * 20 + [4] * 10
    for idx, m in enumerate(trials):
        lat = lattice_from_module(random_integral_module(q, m, rng, bound=2)).reduced()
        shape = shapes[m][idx % len(shapes[m])]
        body = ProductBody(q, m, [PlaceBody("real", m, shape)])
        t = 1.01 * max(body.gauge_many(lat.basis))
        want, radius = oracle_points_below(lat, body, t)
        if radius > 6:
            # keep the exhaustive box tractable; the instance still counts
            t = 1.2 * min(body.gauge_many(lat.basis))
            want, radius = oracle_points_below(lat, body, t)
        got = [(p.coords, p.gauge) for p in enumerate_below(lat, body, t)]
        if [c for c, _ in got] != [c for c, _ in want] or any(
                abs(g1 - g2) > 1e-9 for (_, g1), (_, g2) in zip(got, want)):
            mismatches.append(("enum", idx, m))
            continue
        milestones = oracle_milestone_gauges(want, m)
        mine = [p.gauge for p in classical_minima(lat, body, count=len(milestones))]
        if any(abs(a - b) > 1e-9 for a, b in zip(mine, milestones)):
            mismatches.append(("minima", idx, m))
        checked += 1
    report(7, "enumeration matches the brute-force oracle", not mismatches,
           f"{checked}/50 instances clean" +
           (f"; mismatches: {mismatches}" if mismatches else ""))


# -- 8: covering radius brackets ------------------------------------------------


def covering_corpus():
    q = rational_field()
    k2 = preset_field("Q_sqrt2")
    ki = preset_field("Q_i")
    yield (lattice_from_module(standard_module(q, 1)),
           ProductBody(q, 1, [PlaceBody("real", 1, Ball(F(1)))]))
    yield (lattice_from_module(standard_module(q, 2)),
           ProductBody(q, 2, [PlaceBody("real", 2, Ball(F(1)))]))
    yield (lattice_from_module(standard_module(q, 2)),
           ProductBody(q, 2, [PlaceBody("real", 2, Box((F(1), F(3, 4))))]))
    yield (lattice_from_module(standard_module(k2, 1)),
           uniform_ball_body(k2, 1, F(1)))
    yield (lattice_from_module(standard_module(ki, 1)),
           uniform_ball_body(ki, 1, F(1)))


def test_criterion_8_covering_brackets():
    q = rational_field()
    z2 = lattice_from_module(standard_module(q, 2)).reduced()
    ball = ProductBody(q, 2, [PlaceBody("real", 2, Ball(F(1)))])
    lo, hi = covering_radius_bounds(z2, ball, resolution=128)
    target = math.sqrt(2) / 2
    ok = lo <= target <= hi and (hi - lo) < 0.05
    detail = f"bracket [{lo:.6f}, {hi:.6f}] at resolution 128"

    nested = True
    for lat, body in covering_corpus():
        red = lat.reduced()
        brackets = [covering_radius_bounds(red, body, resolution=k)
                    for k in (16, 32, 64)]
        for (lo1, hi1), (lo2, hi2) in zip(brackets, brackets[1:]):
            if not (lo1 <= lo2 + 1e-12 and hi2 <= hi1 + 1e-12):
                nested = False
    ok &= nested
    report(8, "covering radius bracket and nesting", ok,
           detail + ("" if nested else "; nesting violated"))


# -- 9: invariant suites across the scenario corpus -----------------------------


def scenario_corpus():
    for name in ALL_PRESETS:
        yield name, parse_scenario(load_scenario_text(name)).build()
    k = preset_field("Q_sqrt2")
    two, one, zero = k.from_rational(2), k.one(), k.zero()
    yield "rank2_matrix", AdelicBody(
        module_from_matrix(k, [[two, zero], [zero, one]]),
        uniform_ball_body(k, 2, F(1)))
    ki = preset_field("Q_i")
    round_disc = Ellipsoid(((F(2), F(0)), (F(0), F(2))))
    yield "gaussian_ellipsoid", AdelicBody(
        standard_module(ki, 1),
        ProductBody(ki, 1, [PlaceBody("complex", 2, round_disc)]))


def test_criterion_9_invariant_suites():
    rng = np.random.default_rng(9)
    violations = []
    for label, body in scenario_corpus():
        star = adelic_polar(body)
        if not adelic_equal(adelic_polar(star), body):
            violations.append((label, "biduality"))
        rep = adelic_minima(body)
        if rep.minima != sorted(rep.minima):
            violations.append((label, "monotonicity"))
        if any(s < -1e-9 for s in rep.thunder_slacks):
            violations.append((label, "thunder"))
        scaled = adelic_minima(body.scaled(F(2)))
        for a, b in zip(scaled.minima, rep.minima):
            if abs(a - b / 2) > 1e-9 * (1 + abs(b)):
                violations.append((label, "scaling"))
                break
        # product-polar inclusion by membership sampling
        polars = [pb.polar() for pb in body.infinite_part.place_bodies]
        pts = rng.normal(size=(50, body.infinite_part.ambient_dim))
        total = np.zeros(len(pts))
        for pb, (_, a, b) in zip(polars, body.infinite_part.slices):
            total += pb.gauge_many(pts[:, a:b])
        members = pts / total[:, None]
        for pb, (_, a, b) in zip(polars, body.infinite_part.slices):
            if np.any(pb.gauge_many(members[:, a:b]) > 1 + 1e-9):
                violations.append((label, "product-polar inclusion"))
                break
    report(9, "invariant suites across the scenario corpus", not violations,
           "7 scenarios x 5 invariants" +
           (f"; violations: {violations}" if violations else ""))
