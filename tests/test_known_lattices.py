"""Minima, tied minimal vectors and transference products of lattices with known answers.

The expected values come from each lattice's known minimal norm, kissing
number and duality (see `known_lattices.py`), not from a run.  Every
minimal vector is tied at lambda_1 and the minimal vectors span, so all
minima equal lambda_1, and each search reads many tied points in one
level.
"""

import math
import sys
from fractions import Fraction

import pytest

from adelic import (
    AdelicBody,
    FractionalIdeal,
    KModule,
    KRankTracker,
    NumberField,
    PRESET_FIELDS,
    adelic_minima,
    adelic_polar,
    enumerate_below,
    lattice_from_module,
    preset_field,
    quadratic_field,
    standard_module,
    transference_check,
    uniform_ball_body,
)
from adelic.exactla import mat_det
from field_reference import fraction_krank_decisions, preimage_by_field_arithmetic
from known_lattices import (
    CLASS_NUMBERS,
    CORPUS_ROOTS_OF_UNITY,
    E8_KISSING,
    E8_ROWS,
    PRESET_ROOTS_OF_UNITY,
    bw16_rows,
    class_ideal,
    cyclotomic_field,
    d_n_rows,
    e8_over_eisenstein,
    e8_over_q,
    rational_module,
    reduced_forms,
)
from test_transference import benchmark_corpus

# Per lattice: lambda_1, lambda_1 of the polar, and the kissing numbers of
# both, each twice the number of +- pairs at its lambda_1.  The unit ball is
# its own polar over Q, so the polar lattice is the dual lattice there.
# E8 over Q: the unit ball measures the Euclidean norm, lambda = sqrt 2, and
# E8 is self-dual.  The Eisenstein form is sqrt(3/2) E8 in the Euclidean norm
# of (Re, Im): lambda = sqrt 3.  Its polar lattice under the twisted form
# 2 <x, y> is E8 / sqrt 6, and the polar of the unit ball under that form has
# radius 1/2, so lambda* = 2 sqrt(2 / 6) = 2 / sqrt 3.  D_n has minimal norm
# 2 and kissing number 2n(n-1); D_n* has minimal norm 1 with the 2n vectors
# +-e_i, and for n = 4 also the 16 vectors (+-1/2)^4.  BW16 has minimal norm
# 8 and kissing number 4320, and BW16* = BW16 / sqrt 8 up to rotation.
CASES = {
    "E8 over Q": (e8_over_q, math.sqrt(2), math.sqrt(2), E8_KISSING, E8_KISSING),
    "E8 over Z[w]": (e8_over_eisenstein, math.sqrt(3), 2 / math.sqrt(3), E8_KISSING, E8_KISSING),
    **{f"D{n}": (lambda n=n: rational_module(d_n_rows(n)), math.sqrt(2), 1.0,
                 2 * n * (n - 1), 24 if n == 4 else 2 * n) for n in (4, 5, 8, 12)},
    "BW16": (lambda: rational_module(bw16_rows()), math.sqrt(8), 1.0, 4320, 4320),
}


def body_of(name):
    make, lam = CASES[name][:2]
    module = make()
    return AdelicBody(module, uniform_ball_body(module.field, module.rank, Fraction(1))), lam


def test_e8_rows_have_determinant_one():
    assert abs(mat_det(E8_ROWS)) == 1


def test_d_n_and_bw16_rows_have_the_index_of_their_lattices_in_z_n():
    assert all(abs(mat_det(d_n_rows(n))) == 2 for n in (4, 5, 8, 12))
    assert abs(mat_det(bw16_rows())) == 2 ** 12


@pytest.mark.parametrize("name", CASES)
def test_all_minima_equal_lambda_1(name):
    body, lam = body_of(name)
    rep = adelic_minima(body)
    d = body.field.degree
    assert len(rep.minima) == body.n and len(rep.classical) == (body.n - 1) * d + 1
    assert rep.minima == pytest.approx([lam] * body.n, rel=1e-12)
    assert rep.classical == pytest.approx([lam] * len(rep.classical), rel=1e-12)
    assert rep.thunder_slacks == pytest.approx([0.0] * body.n, abs=1e-12)


@pytest.mark.parametrize("name", CASES)
def test_kissing_number_is_twice_the_pairs_at_lambda_1(name):
    # on the lattice and on its polar
    body, lam = body_of(name)
    _, _, lam_star, kissing, polar_kissing = CASES[name]
    for side, radius, want in ((body, lam, kissing), (adelic_polar(body), lam_star, polar_kissing)):
        points = enumerate_below(side.lattice().reduced(), side.infinite_part, radius * (1 + 1e-9))
        assert 2 * len(points) == want
        assert [p.gauge for p in points] == pytest.approx([radius] * len(points), rel=1e-12)


@pytest.mark.parametrize("name", CASES)
def test_every_transference_product_is_lambda_1_times_its_polar(name):
    body, lam = body_of(name)
    lam_star = CASES[name][2]
    report = transference_check(body)
    assert report.report_sstar.minima == pytest.approx([lam_star] * body.n, rel=1e-12)
    assert [row.product for row in report.rows] == pytest.approx(
        [lam * lam_star] * body.n, rel=1e-12)
    assert report.passed
    assert all(row.lower_verdict == "pass" for row in report.rows)


def corpus_field(name):
    poly, basis, cm, _ = benchmark_corpus().FIELDS[name]
    return NumberField(poly, basis, cm_asserted=cm)


# per field: a maker and |mu_K| (see `known_lattices.py`)
KRONECKER_FIELDS = {
    **{name: (lambda name=name: preset_field(name), mu)
       for name, mu in PRESET_ROOTS_OF_UNITY.items()},
    **{name: (lambda name=name: corpus_field(name), mu)
       for name, mu in CORPUS_ROOTS_OF_UNITY.items()},
    **{f"Q(zeta{m})": (lambda m=m: cyclotomic_field(m), m if m % 2 == 0 else 2 * m)
       for m in (5, 7, 8, 9, 12, 16)},
}


def unit_ball_body(field, n):
    return AdelicBody(standard_module(field, n), uniform_ball_body(field, n, Fraction(1)))


# BW16's 2160 pairs take seconds in field arithmetic, so it is left out here.
# A Kronecker field's case is O_K^2 under unit balls: n |mu_K| / 2 = |mu_K|
# pairs zeta e_i, tied at 1, of which n are K-independent.
@pytest.mark.parametrize("name", [*(name for name in CASES if name != "BW16"), *KRONECKER_FIELDS])
def test_krank_on_the_tied_minimal_vectors_matches_field_arithmetic(name):
    # all pairs at lambda_1, in (gauge, coordinates) order: the tracker on the
    # reduced rows, against theta images of the field-arithmetic preimages
    if name in CASES:
        (body, lam), pairs = body_of(name), CASES[name][3] // 2
    else:
        make, mu = KRONECKER_FIELDS[name]
        body, lam, pairs = unit_ball_body(make(), 2), 1.0, mu
    red = lattice_from_module(body.finite_part).reduced()
    points = [p.coords for p in enumerate_below(red, body.infinite_part, lam * (1 + 1e-9))]
    assert len(points) == pairs
    tracker = KRankTracker(body.field, red.rows)
    decisions = [tracker.try_add(c) for c in points]
    preimages = [preimage_by_field_arithmetic(body.finite_part, red, c) for c in points]
    assert decisions == fraction_krank_decisions(body.field, preimages)
    assert tracker.rank == sum(decisions) == body.n


def test_kronecker_fields_are_every_preset_and_corpus_field():
    assert set(PRESET_ROOTS_OF_UNITY) == set(PRESET_FIELDS)
    assert set(PRESET_ROOTS_OF_UNITY) | set(CORPUS_ROOTS_OF_UNITY) == set(
        benchmark_corpus().FIELDS)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", KRONECKER_FIELDS)
def test_unit_balls_on_o_k_n_have_minima_1_at_n_mu_k_over_2_pairs(name, n):
    make, mu = KRONECKER_FIELDS[name]
    body = unit_ball_body(make(), n)
    assert adelic_minima(body).minima == pytest.approx([1.0] * n, rel=1e-12)
    points = enumerate_below(body.lattice().reduced(), body.infinite_part, 1.0)
    assert len(points) == n * mu // 2
    assert [p.gauge for p in points] == pytest.approx([1.0] * len(points), rel=1e-12)


# Q(zeta_2d) for d = 4, 8, 16: the worst product, at d = 16, is 5 ulp of 2/d below it
@pytest.mark.parametrize("m", [8, 16, 32])
def test_power_of_two_cyclotomic_transference_products_are_2_over_d(m):
    field = cyclotomic_field(m)
    want = 2 / field.degree
    report = transference_check(unit_ball_body(field, 1))
    assert report.rows and all(abs(row.product - want) <= 8 * math.ulp(want)
                               for row in report.rows)


@pytest.mark.parametrize("m", [8, 16, 32])
def test_power_of_two_cyclotomic_trace_dual_is_o_over_d(m):
    field = cyclotomic_field(m)
    d = field.degree
    assert field.discriminant == d ** d
    ring = FractionalIdeal.whole_ring(field)
    assert ring.trace_dual().equals(ring.scaled(field.from_rational(Fraction(1, d))))


# every ideal class of Q(sqrt -5), Q(sqrt -6) and Q(sqrt -23), one reduced form each
CLASS_CASES = [(m, form) for m in CLASS_NUMBERS
               for form in reduced_forms(quadratic_field(m).discriminant)]
CLASS_IDS = [f"m={m} form={','.join(map(str, form))}" for m, form in CLASS_CASES]


def ideal_class_body(m, form):
    """The pseudo line I e_1 for the ideal I of the form, under the unit ball."""
    field = quadratic_field(m)
    module = KModule(field, [(class_ideal(field, form), (field.one(),))])
    return AdelicBody(module, uniform_ball_body(field, 1, Fraction(1)))


def test_reduced_forms_count_the_ideal_classes():
    assert {m: len(reduced_forms(quadratic_field(m).discriminant))
            for m in CLASS_NUMBERS} == CLASS_NUMBERS


@pytest.mark.parametrize("m,form", CLASS_CASES, ids=CLASS_IDS)
def test_lambda_1_on_the_ideal_of_a_reduced_form_is_a(m, form):
    assert adelic_minima(ideal_class_body(m, form)).minima == [form[0]]


# the products are 2a / sqrt|D|, measured within 1 ulp
@pytest.mark.parametrize("m,form", CLASS_CASES, ids=CLASS_IDS)
def test_transference_product_on_every_ideal_class_is_2a_over_sqrt_disc(m, form):
    body = ideal_class_body(m, form)
    root = math.sqrt(-body.field.discriminant)
    report = transference_check(body)
    assert report.report_sstar.minima == pytest.approx([2 / root], rel=4 * sys.float_info.epsilon)
    assert [row.product for row in report.rows] == pytest.approx(
        [2 * form[0] / root], rel=4 * sys.float_info.epsilon)
