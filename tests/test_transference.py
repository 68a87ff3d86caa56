"""Adelic bodies: polarity, successive minima, and transference verdicts."""

import math
import re
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adelic import exactla, lattices, transference
from adelic import (
    AdelicBody,
    Ball,
    Box,
    EmbeddedLattice,
    EnumerationCapError,
    FractionalIdeal,
    KModule,
    KRankTracker,
    NumberField,
    PlaceBody,
    ProductBody,
    adelic_equal,
    adelic_minima,
    adelic_polar,
    inhomogeneous_minimum,
    module_from_matrix,
    mu_product_report,
    preset_field,
    rational_field,
    standard_module,
    transference_check,
    uniform_ball_body,
)
from field_reference import random_module

F = Fraction

PRESETS = ("Q", "Q_sqrt2", "Q_sqrt5", "Q_i", "Q_sqrt-3")


def unit_ball_body(name: str, n: int = 1, radius=F(1)) -> AdelicBody:
    k = preset_field(name)
    return AdelicBody(standard_module(k, n), uniform_ball_body(k, n, radius))


def box_body_sqrt2(n: int = 1) -> AdelicBody:
    k = preset_field("Q_sqrt2")
    bodies = [PlaceBody("real", n, Box(tuple([F(1)] * n))) for _ in range(2)]
    return AdelicBody(standard_module(k, n), ProductBody(k, n, bodies))


# -- polarity ----------------------------------------------------------------


@pytest.mark.parametrize("name", PRESETS)
def test_adelic_biduality_is_exact(name):
    body = unit_ball_body(name, n=1, radius=F(3, 2))
    assert adelic_equal(adelic_polar(adelic_polar(body)), body)
    assert not adelic_equal(adelic_polar(body), body) or name == "Q"


def test_polar_flips_the_embedding_side():
    body = unit_ball_body("Q_i")
    star = adelic_polar(body)
    assert body.conjugated is False
    assert star.conjugated is True
    assert star.lattice().conjugated is True


def test_gaussian_polar_example():
    """Z[i] with the unit ball dualizes to (1/2)Z[i] with Ball(1/2)."""
    k = preset_field("Q_i")
    body = unit_ball_body("Q_i")
    star = adelic_polar(body)
    assert star.infinite_part.place_bodies[0].shape == Ball(F(1, 2))
    half = k.from_rational(F(1, 2))
    expected = KModule(
        k, [(FractionalIdeal.whole_ring(k).scaled(half), (k.one(),))])
    assert star.finite_part.equals(expected)


def test_worked_example_box_duality():
    body = box_body_sqrt2()
    star = adelic_polar(body)
    k = body.field
    dual_basis = FractionalIdeal.whole_ring(k).trace_dual()
    assert star.finite_part.equals(KModule(k, [(dual_basis, (k.one(),))]))
    # interval bodies are self-polar per place in dimension one
    from adelic import CrossPolytope
    assert star.infinite_part.place_bodies[0].shape == CrossPolytope((F(1),))


# -- minima ------------------------------------------------------------------


def test_sqrt2_example_minima():
    body = box_body_sqrt2()
    rep = adelic_minima(body)
    assert rep.minima[0] == pytest.approx(1.0, abs=1e-9)
    star_rep = adelic_minima(adelic_polar(body))
    assert star_rep.minima[0] == pytest.approx(math.sqrt(2) / 4, abs=1e-9)


def test_minima_witnesses_embed_onto_points():
    body = unit_ball_body("Q_sqrt5")
    rep = adelic_minima(body)
    k = body.field
    red = body.lattice().reduced()
    for witness, point in zip(rep.witnesses, rep.points):
        vec = np.asarray(point.coords, dtype=float) @ red.basis
        assert np.allclose(k.embed_vector(witness), vec, atol=1e-9)


def test_minima_of_unit_lattices_are_one():
    for name in PRESETS:
        rep = adelic_minima(unit_ball_body(name))
        assert rep.minima[0] == pytest.approx(1.0, abs=1e-9)


def test_rank_two_minima_and_monotonicity():
    k = preset_field("Q_sqrt2")
    two, one, zero = k.from_rational(2), k.one(), k.zero()
    mod = module_from_matrix(k, [[two, zero], [zero, one]])
    body = AdelicBody(mod, uniform_ball_body(k, 2, F(1)))
    rep = adelic_minima(body)
    assert rep.minima == pytest.approx([1.0, 2.0], abs=1e-9)
    assert rep.minima == sorted(rep.minima)


def test_preimages_are_built_only_for_k_rank_candidates(monkeypatch):
    # K-rank is decided on coordinates; only the n witnesses get a preimage.
    # On 2O x O the point (0, theta) of gauge sqrt 2 is tried and rejected
    # between the witnesses (0, 1) and (2, 0).
    k = preset_field("Q_sqrt2")
    two, one, zero = k.from_rational(2), k.one(), k.zero()
    mod = module_from_matrix(k, [[two, zero], [zero, one]])
    body = AdelicBody(mod, uniform_ball_body(k, 2, F(1)))
    calls = {"preimage_of": 0, "try_add": 0, "points": 0}
    preimage_of, try_add = EmbeddedLattice.preimage_of, KRankTracker.try_add
    points_by_gauge = transference.points_by_gauge

    def counted_preimage_of(self, coords):
        calls["preimage_of"] += 1
        return preimage_of(self, coords)

    def counted_try_add(self, vec):
        calls["try_add"] += 1
        return try_add(self, vec)

    def counted_points_by_gauge(*args):
        for p in points_by_gauge(*args):
            calls["points"] += 1
            yield p

    monkeypatch.setattr(EmbeddedLattice, "preimage_of", counted_preimage_of)
    monkeypatch.setattr(KRankTracker, "try_add", counted_try_add)
    monkeypatch.setattr(transference, "points_by_gauge", counted_points_by_gauge)
    rep = adelic_minima(body)
    assert rep.minima == pytest.approx([1.0, 2.0], abs=1e-9)
    assert rep.classical == pytest.approx([1.0, 2 ** 0.5, 2.0], abs=1e-9)
    assert calls["preimage_of"] == 2 < calls["try_add"] <= calls["points"]


@pytest.mark.parametrize("field", ["Q_sqrt2", "x3-x-1"])
def test_q_rejected_points_are_not_k_tested(monkeypatch, field):
    # a point in the Q-span of the points before it is in the K-span of the
    # witnesses, so adelic_minima offers it to the Q tracker only; the skewed
    # box makes such points come before the classical list is complete
    k = preset_field(field) if field != "x3-x-1" else NumberField(
        [-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    places = [PlaceBody(kind, dim, Box(tuple(F(10 ** (i % 2)) for i in range(dim)))
                        if kind == "real" else Ball(F(1)))
              for (kind, _), dim in zip(k.places, k.place_dims(2))]
    body = AdelicBody(random_module(k, 2), ProductBody(k, 2, places))
    # the witnesses of a pass that K-tests every point of the same stream
    red = body.lattice().reduced()
    tracker = KRankTracker(k, red.rows)
    expected = [p.coords for p in transference.points_by_gauge(  # (n - 1) d + 1 minima over R
        red, body.infinite_part, k.degree + 1) if tracker.try_add(p.coords)]

    rejected, k_tested = set(), set()

    class RecordingTracker(exactla.RankTracker):
        def try_add(self, vec):
            added = super().try_add(vec)
            if not added:
                rejected.add(tuple(vec))
            return added

    try_add = KRankTracker.try_add
    monkeypatch.setattr(transference, "RankTracker", RecordingTracker)
    monkeypatch.setattr(KRankTracker, "try_add",
                        lambda self, coords: k_tested.add(tuple(coords)) or try_add(self, coords))
    rep = adelic_minima(body)
    assert rejected and k_tested and not rejected & k_tested
    assert [p.coords for p in rep.points] == expected


def spy_on(monkeypatch, original, record):
    """Route every binding of `original` in the adelic modules through `record` first."""
    def spy(*args):
        record(*args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name == "adelic" or name.startswith("adelic."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, spy)


def test_transference_inverts_no_nd_by_nd_matrix(monkeypatch):
    # every exact solve runs through solve_scaled: the ideal duals and
    # actions are d x d, and the pseudo-vector inverse is one nd x nd
    # solve with n right-hand sides, not an inverse, made when the module
    # is built; degree >= 2 keeps n x n and d x d apart from nd x nd
    inversions, shapes = [], []
    spy_on(monkeypatch, exactla.mat_inv, lambda a: inversions.append(len(a)))
    spy_on(monkeypatch, exactla.solve_scaled, lambda a, b: shapes.append((len(a), len(b[0]))))
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for k in (preset_field("Q_sqrt2"), cubic):
        one, zero, theta = k.one(), k.zero(), k.theta()
        nd = 2 * k.degree
        shapes.clear()
        mod = module_from_matrix(k, [[one + theta, theta], [one, k.from_rational(3)]])
        assert [s for s in shapes if s[0] == nd] == [(nd, 2)]
        inversions.clear()
        shapes.clear()
        assert transference_check(AdelicBody(mod, uniform_ball_body(k, 2, F(1)))).passed
        assert inversions == []
        assert shapes and all(s[0] < nd for s in shapes)


def test_polar_and_biduality_invert_no_matrix(monkeypatch, capsys):
    # trace duals, ideal duals and module equality are solves and
    # unimodular-ratio tests on integer numerators
    inversions = []
    spy_on(monkeypatch, exactla.mat_inv, inversions.append)
    k = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    one, theta = k.one(), k.theta()
    body = AdelicBody(module_from_matrix(k, [[one + theta, theta], [one, k.from_rational(3)]]),
                      uniform_ball_body(k, 2, F(1)))
    assert adelic_equal(adelic_polar(adelic_polar(body)), body)
    from adelic.cli import main
    scenario = Path(__file__).with_name("scenarios") / "x3-x-1_rank2_box.ini"
    assert main(["polar", str(scenario), "--machine"]) == 0
    assert "polar biduality=pass" in capsys.readouterr().out
    assert inversions == []


@pytest.mark.parametrize("command,line", [("polar", "polar biduality=pass"),
                                          ("verify-duality", "duality rank=3 equal=true")],
                         ids=["polar", "verify-duality"])
def test_duality_commands_eliminate_one_nd_by_nd_matrix(monkeypatch, capsys, command, line):
    # x^3-3x-1 at rank 3 (nd 9): the solve with R(W) made when the module is
    # built; the dual's inverse is read off W, the ideal pairings that certify
    # the dual are d x d identities up to scale, read off, and biduality finds
    # the same pseudo-basis
    sizes = []
    bareiss = exactla._bareiss
    monkeypatch.setattr(exactla, "_bareiss", lambda m, n: sizes.append(n) or bareiss(m, n))
    from adelic.cli import main
    scenario = Path(__file__).with_name("scenarios") / "x3-3x-1_rank3.ini"
    assert main([command, str(scenario), "--machine"]) == 0
    assert line in capsys.readouterr().out
    assert max(sizes) == 9 and sizes.count(9) == 1


def test_minima_cap_error_names_the_stage_round_and_level(capsys):
    # the unit ball's schedule is the one level sqrt 2, the larger basis gauge
    body = unit_ball_body("Q_sqrt2", 2)
    with pytest.raises(EnumerationCapError,
                       match=r"^minima search, round 1 at level t=1.41421: enumeration would "
                             r"visit more than 10 nodes"):
        adelic_minima(body, cap=10)
    from adelic.cli import main
    assert main(["minima", "Q_sqrt2", "--cap", "2"]) == 3
    assert "minima search, round 1 at level t=1:" in capsys.readouterr().err
    # the (1, 3) box searches at levels 0.5 and 1, and the second needs more than 20 nodes
    k = preset_field("Q_sqrt2")
    boxed = AdelicBody(standard_module(k, 2),
                       ProductBody(k, 2, [PlaceBody("real", 2, Box((F(1), F(3))))] * 2))
    with pytest.raises(EnumerationCapError,
                       match=r"^minima search, round 2 at level t=1: enumeration would "
                             r"visit more than 20 nodes"):
        adelic_minima(boxed, cap=20)
    # transference_check names the side: the box needs more nodes than its
    # polar, so at this cap S fails, and S* fails for the polar body
    for body, side in ((boxed, "body S"), (adelic_polar(boxed), "polar S*")):
        with pytest.raises(EnumerationCapError,
                           match=rf"^{re.escape(side)}: minima search, round \d+ at level t="):
            transference_check(body, cap=50)


def test_nd15_probe_completes_with_a_pinned_point_count(monkeypatch):
    # x^3-x-1 at rank 5 (nd 15): the doubling schedule hit the node cap in
    # round 3 on this body; the bracketed one finishes in a few rounds.  The
    # count depends on the polar's reduced basis, which starts from the
    # primal's transform read off
    k = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    body = AdelicBody(random_module(k, 5), uniform_ball_body(k, 5, F(1)))
    rounds, points = [], []
    real = lattices.enumerate_below

    def spy(lat, body, t, cap, factor):
        out = real(lat, body, t, cap, factor)
        rounds.append(t)
        points.append(len(out))
        return out

    monkeypatch.setattr(lattices, "enumerate_below", spy)
    rep = transference_check(body)
    assert rep.passed and len(rep.rows) == 5
    assert (len(rounds), sum(points)) == (10, 264)


def benchmark_corpus():
    """The benchmark's corpus module, `perfbench/corpus.py`."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import corpus
    finally:
        sys.path.pop(0)
    return corpus


def read_off_fields():
    """Every preset field, then every field of the benchmark corpus that is not one."""
    corpus = benchmark_corpus()
    fields = {name: preset_field(name) for name in PRESETS}
    for name, (poly, basis, cm, _) in corpus.FIELDS.items():
        fields.setdefault(name, NumberField(poly, basis, cm_asserted=cm))
    return fields


def searched_lattices(monkeypatch, body):
    """transference_check(body) and the reduced lattices it searches, S then S*."""
    searched = []
    real = transference.adelic_minima

    def spy(side_body, cap, reduced=None):
        searched.append(reduced)
        return real(side_body, cap, reduced)

    monkeypatch.setattr(transference, "adelic_minima", spy)
    return transference_check(body), searched


@pytest.mark.parametrize("name,n", [(name, n) for name in read_off_fields() for n in (1, 2)])
def test_polar_read_off_spans_the_polar_and_keeps_its_minima(monkeypatch, name, n):
    # the polar's basis starts from the primal's transform read off; it spans
    # the polar lattice, and its minima are those of a reduction from scratch
    k = read_off_fields()[name]
    body = AdelicBody(random_module(k, n, seed=n), uniform_ball_body(k, n, F(1)))
    rep, (red, red_star) = searched_lattices(monkeypatch, body)
    star = adelic_polar(body)
    assert exactla.is_unimodular_ratio(red_star.rows, star.lattice().rows)
    assert exactla.is_unimodular_ratio(red.rows, body.lattice().rows)
    scratch = adelic_minima(star)
    assert len(rep.report_sstar.minima) == n
    for got, want in zip(rep.report_sstar.minima + rep.report_sstar.classical,
                         scratch.minima + scratch.classical):
        assert math.isclose(got, want, rel_tol=1e-12)


@pytest.mark.parametrize("name,seed", [("Q/5/b/ball", 2), ("Q/4/c/ball", 1)])
def test_minima_are_within_two_ulp_of_the_exact_gauge_of_their_witnesses(name, seed):
    # over Q a ball's gauge is |w| / r: a Fraction sum of squares, its square
    # root taken in Decimal.  A reduced basis summed in floats from the start
    # basis put S*'s minima of these corpus slots 18.6 and 5 ulp off; embedded
    # from its exact rows, every Q ball slot of seeds 1-3 is within 1.53 ulp
    case = next(c for c in benchmark_corpus().make_pass("transference", seed)
                if c.slot.name == name)
    k = rational_field()
    module = module_from_matrix(k, [[k.element(e) for e in row] for row in case.matrix])
    body = AdelicBody(module, uniform_ball_body(k, case.slot.n, case.scale))
    rep = transference_check(body)
    for side, report in ((body, rep.report_s), (adelic_polar(body), rep.report_sstar)):
        [place] = side.infinite_part.place_bodies
        for m, w in zip(report.minima, report.witnesses):
            sq = sum(x.coords[0] ** 2 for x in w) / place.shape.radius ** 2
            with localcontext() as ctx:
                ctx.prec = 50
                exact = (Decimal(sq.numerator) / Decimal(sq.denominator)).sqrt()
            assert abs(Decimal(m) - exact) <= 2 * Decimal(math.ulp(float(exact)))


def test_transference_check_reduces_one_lattice_from_scratch(monkeypatch):
    # two LLL runs, and the polar's is a finishing pass: it moves fewer basis
    # rows (rows of U other than the identity's) than a reduction from scratch
    k = preset_field("Q_sqrt2")
    body = AdelicBody(random_module(k, 5), uniform_ball_body(k, 5, F(1)))
    moved = []
    real = lattices._lll_transform

    def spy(b, delta):
        u, v = real(b, delta)
        moved.append(sum(row != [int(i == j) for j in range(len(u))] for i, row in enumerate(u)))
        return u, v

    monkeypatch.setattr(lattices, "_lll_transform", spy)
    transference_check(body)
    assert len(moved) == 2
    adelic_minima(adelic_polar(body))
    assert len(moved) == 3 and moved[1] < moved[2]


def test_thunder_slacks_are_nonnegative():
    for name in ("Q_sqrt2", "Q_i"):
        k = preset_field(name)
        body = AdelicBody(standard_module(k, 2), uniform_ball_body(k, 2, F(1)))
        rep = adelic_minima(body)
        assert len(rep.thunder_slacks) == 2
        for slack in rep.thunder_slacks:
            assert slack >= -1e-9
        assert len(rep.classical) == (2 - 1) * k.degree + 1


def test_minima_scaling_covariance():
    body = unit_ball_body("Q_sqrt2")
    rep = adelic_minima(body)
    rep2 = adelic_minima(body.scaled(F(2)))
    assert rep2.minima == pytest.approx([x / 2 for x in rep.minima], rel=1e-9)
    rep_half = adelic_minima(body.scaled(F(1, 2)))
    assert rep_half.minima == pytest.approx([2 * x for x in rep.minima], rel=1e-9)


def test_scaled_body_keeps_the_module():
    body = unit_ball_body("Q_i")
    scaled = body.scaled(F(3))
    assert scaled.finite_part is body.finite_part
    assert scaled.infinite_part.place_bodies[0].shape == Ball(F(3))


def test_adelic_body_validation():
    k2, k5 = preset_field("Q_sqrt2"), preset_field("Q_sqrt5")
    with pytest.raises(ValueError):
        AdelicBody(standard_module(k2, 1), uniform_ball_body(k5, 1, F(1)))
    with pytest.raises(ValueError):
        AdelicBody(standard_module(k2, 2), uniform_ball_body(k2, 1, F(1)))


# -- transference ------------------------------------------------------------


def test_sqrt2_example_transference_reaches_lower_bound():
    report = transference_check(box_body_sqrt2())
    assert report.passed
    assert report.flags.totally_real
    assert report.lower == pytest.approx(8 ** -0.5)
    row = report.rows[0]
    assert row.product == pytest.approx(8 ** -0.5, abs=1e-9)
    assert row.lower_verdict == "pass"
    assert row.upper_verdict == "pass"
    assert row.verdict == "pass"


def test_unit_ball_products_achieve_the_lower_bound():
    """For real quadratic rings the unit-ball product is exactly |disc|^(-1/2)."""
    for name in ("Q_sqrt2", "Q_sqrt5"):
        body = unit_ball_body(name)
        report = transference_check(body)
        want = abs(body.field.discriminant) ** -0.5
        assert report.rows[0].product == pytest.approx(want, abs=1e-9)
        assert report.passed


def test_gaussian_unit_ball_product_is_one():
    report = transference_check(unit_ball_body("Q_i"))
    assert report.rows[0].product == pytest.approx(1.0, abs=1e-9)
    assert report.lower == pytest.approx(0.5)
    assert report.flags.cm and not report.flags.cm_was_asserted
    assert report.passed


def test_eisenstein_unit_ball_product():
    report = transference_check(unit_ball_body("Q_sqrt-3"))
    assert report.rows[0].product == pytest.approx(2 / math.sqrt(3), abs=1e-9)
    assert report.passed


def test_rational_unit_lattice_products_are_one():
    q = rational_field()
    for n in (1, 2, 3):
        body = AdelicBody(standard_module(q, n), uniform_ball_body(q, n, F(1)))
        report = transference_check(body)
        assert report.lower == pytest.approx(1.0)
        for row in report.rows:
            assert row.product == pytest.approx(1.0, abs=1e-9)
        assert report.passed


def test_rank_two_transference_products():
    k = preset_field("Q_sqrt2")
    body = AdelicBody(standard_module(k, 2), uniform_ball_body(k, 2, F(1)))
    report = transference_check(body)
    assert report.n == 2 and report.d == 2
    assert report.upper == pytest.approx(8.0)  # (nd)^(3/2) = 4^1.5
    for row in report.rows:
        assert row.product == pytest.approx(8 ** -0.5, abs=1e-9)
    assert report.passed


def test_lower_bound_is_na_for_mixed_signature_fields():
    # a cubic field with one real and one complex place is neither totally
    # real nor CM, so the lower bound must report n/a rather than fail
    from adelic import NumberField
    k = NumberField([-2, 0, 0, 1],
                    [[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # x^3 - 2, Z[2^(1/3)]
    assert k.signature == (1, 1)
    body = AdelicBody(standard_module(k, 1), uniform_ball_body(k, 1, F(1)))
    report = transference_check(body)
    assert report.lower is None
    assert not report.flags.lower_bound_applies
    for row in report.rows:
        assert row.lower_verdict == "n/a"
        assert row.upper_verdict == "pass"
        assert row.verdict == "pass"
    assert report.passed


def test_transference_products_are_scale_invariant():
    body = unit_ball_body("Q_sqrt5")
    base = [row.product for row in transference_check(body).rows]
    scaled = [row.product for row in transference_check(body.scaled(F(3))).rows]
    assert scaled == pytest.approx(base, rel=1e-9)


# -- inhomogeneous minimum and the mu product --------------------------------


def test_inhomogeneous_minimum_of_z():
    q = rational_field()
    body = AdelicBody(standard_module(q, 1), uniform_ball_body(q, 1, F(1)))
    lo, hi = inhomogeneous_minimum(body, resolution=64)
    assert lo <= 0.5 <= hi
    assert hi - lo < 0.05


def test_mu_product_report_brackets():
    body = box_body_sqrt2()
    rep = mu_product_report(body, resolution=32)
    assert rep.lambda1 == pytest.approx(1.0, abs=1e-9)
    lo, hi = rep.mu_bracket
    assert 0 < lo <= hi
    assert rep.product_bracket == (pytest.approx(rep.lambda1 * lo),
                                   pytest.approx(rep.lambda1 * hi))
    nd = 2
    assert rep.reference == pytest.approx(nd * (1 + math.log(nd)))
    # the bracketed product should sit below the reference for this example
    assert hi < rep.reference


def mu_cases():
    from adelic import parse_scenario
    from adelic.cli import load_scenario_text
    cases = {name: parse_scenario(load_scenario_text(name)).build() for name in PRESETS}
    sqrt2 = preset_field("Q_sqrt2")
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    cases["Q_sqrt2 n=2"] = AdelicBody(random_module(sqrt2, 2), uniform_ball_body(sqrt2, 2, F(1)))
    cases["Q_sqrt2 n=3 box"] = AdelicBody(
        random_module(sqrt2, 3), ProductBody(sqrt2, 3, [PlaceBody("real", 3, Box(
            (F(1), F(2), F(10))))] * 2))
    cases["x3-x-1 n=2"] = AdelicBody(random_module(cubic, 2), uniform_ball_body(cubic, 2, F(1)))
    cases["x3-x-1 n=3 box"] = AdelicBody(random_module(cubic, 3), ProductBody(cubic, 3, [
        PlaceBody("real", 3, Box((F(1), F(1), F(30)))), PlaceBody("complex", 6, Ball(F(1)))]))
    return cases


@pytest.mark.parametrize("name", list(mu_cases()))
def test_mu_product_report_runs_no_minima_search(monkeypatch, name):
    # lambda_1 is the first point of the k = 1 stream; the K-rank bookkeeping,
    # the other minima and the classical minima of adelic_minima are never built
    body = mu_cases()[name]
    expected = adelic_minima(body).minima[0]
    trackers = []
    spy_on(monkeypatch, KRankTracker, lambda *args: trackers.append(args))
    if body.n * body.field.degree > 4:
        # the covering grid refuses nd > 4; lambda_1 is read before it
        monkeypatch.setattr(transference, "inhomogeneous_minimum",
                            lambda star, resolution, cap: (1.0, 1.0))
    rep = mu_product_report(body, resolution=4)
    assert rep.lambda1 == expected
    assert trackers == []
