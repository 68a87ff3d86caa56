"""Adelic bodies: polarity, successive minima, and transference verdicts."""

import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adelic import exactla, transference
from adelic import (
    AdelicBody,
    Ball,
    Box,
    ComputeOptions,
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
    for witness, point in zip(rep.witnesses, rep.points):
        assert np.allclose(k.embed_vector(witness), point.point, atol=1e-9)


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
    # solve with n right-hand sides, not an inverse; degree >= 2 keeps
    # n x n and d x d apart from nd x nd
    inversions, shapes = [], []
    spy_on(monkeypatch, exactla.mat_inv, lambda a: inversions.append(len(a)))
    spy_on(monkeypatch, exactla.solve_scaled, lambda a, b: shapes.append((len(a), len(b[0]))))
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for k in (preset_field("Q_sqrt2"), cubic):
        one, zero, theta = k.one(), k.zero(), k.theta()
        mod = module_from_matrix(k, [[one + theta, theta], [one, k.from_rational(3)]])
        inversions.clear()
        shapes.clear()
        assert transference_check(AdelicBody(mod, uniform_ball_body(k, 2, F(1)))).passed
        nd = 2 * k.degree
        assert inversions == []
        assert (nd, 2) in shapes and (nd, nd) not in shapes


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


def test_minima_cap_error_names_the_stage_round_and_level(capsys):
    body = unit_ball_body("Q_sqrt2", 2)
    with pytest.raises(EnumerationCapError,
                       match=r"^minima search, round 2 at level t=2: enumeration would "
                             r"visit more than 10 nodes"):
        adelic_minima(body, ComputeOptions(enumeration_cap=10))
    from adelic.cli import main
    assert main(["minima", "Q_sqrt2", "--cap", "2"]) == 3
    assert "minima search, round 1 at level t=1:" in capsys.readouterr().err
    # transference_check names the side: the (1, 3) box needs more nodes
    # than its polar, so at this cap S fails, and S* fails for the polar body
    k = preset_field("Q_sqrt2")
    boxed = AdelicBody(standard_module(k, 2),
                       ProductBody(k, 2, [PlaceBody("real", 2, Box((F(1), F(3))))] * 2))
    for body, side in ((boxed, "body S"), (adelic_polar(boxed), "polar S*")):
        with pytest.raises(EnumerationCapError,
                           match=rf"^{re.escape(side)}: minima search, round \d+ at level t="):
            transference_check(body, ComputeOptions(enumeration_cap=100))


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
