"""Number field arithmetic, trace form, discriminant, and embeddings."""

import math
import random
import struct
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic import numberfield
from adelic import (
    ConditioningError,
    NumberField,
    PRESET_FIELDS,
    preset_field,
    quadratic_field,
    rational_field,
)
from adelic.bodies import SHAPE_BOUND
from adelic.exactla import mat_det, mat_mul, transpose
from adelic.numberfield import float_of
from adelic.scenario import parse_scenario
from field_reference import (
    complementary_basis,
    embed_flat,
    fraction_det,
    precise_root,
    reduction_trace_form,
    sturm_real_root_count,
    times_theta_power,
)
from known_lattices import CORPUS_ROOTS_OF_UNITY, cyclotomic_field
from test_known_lattices import corpus_field
from test_layering import refuse_roots
from test_transference import benchmark_corpus

F = Fraction

# Frozen oracles for the five preset fields, worked out by hand from the
# trace form on the stated bases.  Dual basis coordinates are in the power
# basis 1, theta.
PRESET_ORACLES = {
    "Q": dict(disc=1, signature=(1, 0), gram=[[1]], dual=[[F(1)]]),
    "Q_sqrt2": dict(
        disc=8, signature=(2, 0), gram=[[2, 0], [0, 4]],
        dual=[[F(1, 2), F(0)], [F(0), F(1, 4)]]),
    "Q_sqrt5": dict(
        disc=5, signature=(2, 0), gram=[[2, 1], [1, 3]],
        dual=[[F(1, 2), F(-1, 10)], [F(0), F(1, 5)]]),
    "Q_i": dict(
        disc=-4, signature=(0, 1), gram=[[2, 0], [0, -2]],
        dual=[[F(1, 2), F(0)], [F(0), F(-1, 2)]]),
    "Q_sqrt-3": dict(
        disc=-3, signature=(0, 1), gram=[[2, 1], [1, -1]],
        dual=[[F(1, 2), F(1, 6)], [F(0), F(-1, 3)]]),
}


@pytest.fixture(params=sorted(PRESET_FIELDS), ids=str)
def preset(request):
    return preset_field(request.param)


def test_preset_invariants_match_oracles(preset):
    want = PRESET_ORACLES[preset.name]
    assert preset.discriminant == want["disc"]
    assert preset.signature == want["signature"]
    assert preset.trace_gram == [[F(x) for x in row] for row in want["gram"]]
    duals = complementary_basis(preset)
    assert [list(e.coords) for e in duals] == want["dual"]


def test_complementary_basis_is_trace_dual(preset):
    duals = complementary_basis(preset)
    basis = [preset.element(row) for row in preset.basis_matrix]
    for i, e in enumerate(duals):
        for j, b in enumerate(basis):
            assert (e * b).trace() == (1 if i == j else 0)


def test_trace_and_norm_on_sqrt2():
    k = quadratic_field(2)
    x = k.element([F(3), F(-2)])  # 3 - 2*sqrt(2)
    assert x.trace() == 6
    assert x.norm() == 9 - 2 * 4  # a^2 - 2 b^2
    y = k.element([F(1), F(1)])
    # Tr((a + b s)(c + d s)) = 2ac + 4bd for s = sqrt(2)
    assert (x * y).trace() == 2 * 3 * 1 + 4 * (-2) * 1


def test_golden_ratio_trace():
    k = quadratic_field(5)
    phi = k.element(k.basis_matrix[1])  # (1 + sqrt 5)/2
    assert phi.trace() == 1
    assert phi.norm() == -1
    assert (phi * phi - phi - 1).is_zero()


def test_element_arithmetic_field_axioms():
    k = quadratic_field(-1)
    i = k.theta()
    assert i * i == -1
    x = k.element([F(2), F(3)])
    assert x * x.inverse() == k.one()
    assert (x + (-x)).is_zero()
    assert x ** 3 == x * x * x
    assert (1 / i) == -i
    assert x / x == k.one()
    with pytest.raises(ZeroDivisionError):
        k.zero().inverse()


def test_rational_elements_compare_equal_to_rationals():
    k = quadratic_field(2)
    assert k.theta() != 2 and k.theta() * k.theta() == 2
    assert k.from_rational(F(7, 3)) == F(7, 3)
    assert k.from_rational(F(7, 3)).coords == (F(7, 3), F(0))


def test_rational_elements_hash_as_the_rationals_they_equal():
    k = quadratic_field(2)
    x = k.from_rational(F(7, 3))
    assert x == F(7, 3) and hash(x) == hash(F(7, 3))
    assert len({x, F(7, 3)}) == 1 and {F(7, 3): "q"}[x] == "q"
    assert len({k.from_rational(5), 5, F(5)}) == 1
    assert len({k.theta(), k.from_rational(1)}) == 2


def test_elements_of_separately_built_fields_compare_without_raising():
    x, y = preset_field("Q_sqrt2").theta(), preset_field("Q_sqrt2").theta()
    assert x == y and not x != y and x in [y] and hash(x) == hash(y)
    assert len({x, y, 2 * y}) == 2
    # another polynomial, same coordinates: unequal, and still no error
    z = preset_field("Q_i").theta()
    assert x != z and not x == z and z not in [x, y]
    # arithmetic across field objects still refuses
    with pytest.raises(ValueError, match="different fields"):
        x + y


def power_basis(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def test_count_real_roots():
    assert NumberField([-2, 0, 1], power_basis(2)).signature == (2, 0)       # x^2 - 2
    assert NumberField([1, 0, 1], power_basis(2)).signature == (0, 1)        # x^2 + 1
    assert NumberField([-1, -1, 0, 1], power_basis(3)).signature == (1, 1)   # x^3 - x - 1
    assert NumberField([0, -2, 0, 1], power_basis(3)).signature == (3, 0)    # x^3 - 2x


@st.composite
def monic_polynomials(draw):
    """Monic integer polynomials of degree 1 to 10, coefficients small or up to 10^12."""
    d = draw(st.integers(1, 10))
    bound = draw(st.sampled_from([2, 30, 10 ** 12]))
    return draw(st.lists(st.integers(-bound, bound), min_size=d, max_size=d)) + [1]


@settings(max_examples=200, deadline=None)
@given(monic_polynomials())
def test_trace_form_signature_and_discriminant_match_the_references(poly):
    # the exact data against the reduction-table trace form, its Fraction
    # determinant and the Sturm count; construction finds no float roots
    d = len(poly) - 1
    want = reduction_trace_form(poly)
    disc = fraction_det(want)
    with patch.object(NumberField, "_roots", property(refuse_roots)):
        if disc == 0:
            with pytest.raises(ValueError, match="squarefree"):
                NumberField(poly, power_basis(d))
            return
        k = NumberField(poly, power_basis(d))
    r = sturm_real_root_count(poly)
    assert k.trace_form == want
    assert k.signature == (r, (d - r) // 2)
    assert k.discriminant == disc


@pytest.mark.xfail(strict=True, reason="irreducibility is not decided yet (ROADMAP item 9)")
def test_a_reducible_polynomial_is_refused():
    # x^2 - 1 = (x - 1)(x + 1) is squarefree, so its trace form passes, and
    # Q[x]/(f) is Q x Q, not a field: 1 + theta and 1 - theta are zero divisors
    with pytest.raises(ValueError, match="irreducible"):
        NumberField([-1, 0, 1], power_basis(2))


def test_root_order_and_residuals(preset):
    coeffs = [float(c) for c in preset.poly]
    scale = 1 + max(abs(c) for c in coeffs)
    for root in preset.real_roots:
        val = sum(c * root ** k for k, c in enumerate(coeffs))
        assert abs(val) < 1e-12 * scale
    for root in preset.complex_roots:
        assert root.imag > 0
        val = sum(c * root ** k for k, c in enumerate(coeffs))
        assert abs(val) < 1e-12 * scale
    assert preset.real_roots == sorted(preset.real_roots)


def test_root_residual_bound_scales_with_the_polynomial():
    # a bound fixed to max |a_k| refused these; Horner's error grows with sum |a_k| |z|^k
    k = NumberField([-1, -10 ** 6, 1], power_basis(2))
    assert k.signature == (2, 0) and math.isclose(k.real_roots[1], 1e6 + 1e-6, rel_tol=1e-15)
    rng = random.Random(0)
    built = 0
    for d in (4, 5, 6):
        for _ in range(40):
            poly = [rng.randint(-30, 30) for _ in range(d)] + [1]
            try:
                NumberField(poly, power_basis(d)).places
            except ValueError as exc:
                assert "squarefree" in str(exc)
                continue
            built += 1
    assert built >= 110


@pytest.mark.parametrize("poly,planted,kind", [
    ([-2, 0, 1], [1e6, -1.4], "real"),
    ([1, 0, 1], [1e6j, -1e6j], "complex"),
])
def test_a_wrong_float_root_fails_the_residual_check(poly, planted, kind):
    # six Newton steps from 10^6 leave z near 10^6 / 64, far from every root
    k = NumberField(poly, power_basis(2))
    with patch.object(numberfield.np, "roots", lambda p: list(planted)):
        with pytest.raises(ConditioningError, match=f"{kind} root residual too large"):
            k.real_roots


# the presets, the other corpus fields and the cyclotomic fields of the known answers
ROOT_FIELDS = {
    **{name: lambda name=name: preset_field(name) for name in PRESET_FIELDS},
    **{name: lambda name=name: corpus_field(name) for name in CORPUS_ROOTS_OF_UNITY},
    **{f"Q(zeta{m})": lambda m=m: cyclotomic_field(m) for m in (5, 7, 8, 9, 12, 16, 32)},
}


@pytest.mark.parametrize("name", ROOT_FIELDS)
def test_every_root_part_is_within_1_25_ulp_of_its_modulus_from_a_60_digit_reference(name):
    # in ulps of |z|, the error a backward-stable start and the Newton polish promise
    # whatever start numpy's LAPACK gives; measured at most 0.57 ulp (sqrt 2).  In ulps
    # of each part the error depends on that start (ROADMAP item 4)
    field = ROOT_FIELDS[name]()
    poly = [int(c) for c in field.poly]
    for z in [complex(x, 0.0) for x in field.real_roots] + field.complex_roots:
        want = precise_root(poly, z)
        unit = math.ulp(abs(complex(float(want[0]), float(want[1]))))
        for got, part in zip((z.real, z.imag), want):
            assert float(abs(Decimal(got) - part)) <= 1.25 * unit, (z, want)


def test_embed_sqrt2_orders_real_roots_ascending():
    k = quadratic_field(2)
    e = k.embed_vector([k.theta()])
    assert e == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)


def test_embed_gaussian_units():
    k = quadratic_field(-1)
    e = k.embed_vector([k.theta()])
    assert e == pytest.approx([0.0, 1.0], abs=1e-12)
    ec = k.embed_vector([k.theta()], conjugated=True)
    assert ec == pytest.approx([0.0, -1.0], abs=1e-12)


def test_embed_vector_is_place_major():
    k = quadratic_field(2)
    s2 = math.sqrt(2)
    one, theta = k.one(), k.theta()
    v = k.embed_vector([one, theta])
    # place 1 holds sigma_1 of both entries, then place 2
    assert v == pytest.approx([1.0, -s2, 1.0, s2], abs=1e-12)


# the presets and six fields of degree 3 to 6 on their power bases, with
# signatures (1,1), (3,0), (0,2), (2,1), (1,2) and (0,3)
EMBED_FIELDS = [preset_field(name) for name in sorted(PRESET_FIELDS)] + [
    NumberField(poly, [[int(i == j) for j in range(len(poly) - 1)] for i in range(len(poly) - 1)])
    for poly in ([-1, -1, 0, 1], [-1, -3, 0, 1], [1, 0, 0, 0, 1], [-1, -1, 0, 0, 1],
                 [-1, -1, 0, 0, 0, 1], [1, 0, 0, 1, 0, 0, 1])]


@st.composite
def embed_inputs(draw):
    """A field, integer rows N of n K-vectors (zero rows among them) and a scale s."""
    k = draw(st.sampled_from(EMBED_FIELDS))
    width = draw(st.integers(1, 4)) * k.degree
    row = st.one_of(st.just([0] * width),
                    st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=width, max_size=width))
    rows = draw(st.lists(row, min_size=1, max_size=5))
    return k, rows, draw(st.integers(1, 10 ** 6))


@settings(max_examples=150, deadline=None)
@given(embed_inputs(), st.booleans())
def test_embed_rows_is_the_per_element_complex_horner(inputs, conjugated):
    k, num, s = inputs
    got = k.embed_rows((num, s), conjugated)
    want = np.array([embed_flat(k, [x / s for x in row], conjugated) for row in num])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # one K-vector, its coordinates in lowest terms, embeds as its row of N / s
    xs = [k.element([F(x, s) for x in num[0][j:j + k.degree]])
          for j in range(0, len(num[0]), k.degree)]
    assert k.embed_vector(xs, conjugated).tobytes() == got[0].tobytes()


def test_place_layout(preset):
    r, s = preset.signature
    assert len(preset.places) == r + s
    assert preset.place_dims(3) == [3] * r + [6] * s
    slices = preset.place_slices(2)
    assert slices[0][1] == 0
    assert slices[-1][2] == 2 * preset.degree
    diag = preset.twisted_form_diag(1)
    assert np.all(diag[:r] == 1.0) and np.all(diag[r:] == 2.0)


elem_coords = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=2, max_size=2)


@settings(max_examples=30, deadline=None)
@given(elem_coords, elem_coords)
def test_trace_equals_twisted_form(xc, yc):
    """Tr(x*y) agrees with the twisted scalar product of the embeddings."""
    for name in ("Q_sqrt2", "Q_sqrt5", "Q_i", "Q_sqrt-3"):
        k = preset_field(name)
        x, y = k.element(xc), k.element(yc)
        lhs = float((x * y).trace())
        diag = k.twisted_form_diag(1)
        rhs = float(np.sum(diag * k.embed_vector([x]) * k.embed_vector([y], conjugated=True)))
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_validation_rejects_bad_polynomials():
    with pytest.raises(ValueError, match="monic"):
        NumberField([2, 0, 2], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="squarefree"):
        NumberField([0, 0, 1], [[1, 0], [0, 1]])
    # (x^2 - 2)^2: a repeated root that is not rational
    with pytest.raises(ValueError, match="squarefree"):
        NumberField([4, 0, -4, 0, 1], [[int(i == j) for j in range(4)] for i in range(4)])
    with pytest.raises(ValueError, match="integer"):
        NumberField([F(1, 2), 0, 1], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="degree at least 1"):
        NumberField([1], [[1]])


def test_validation_rejects_bad_bases():
    # 1 is not in the span of {2, theta}
    with pytest.raises(ValueError):
        NumberField([-2, 0, 1], [[2, 0], [0, 1]])
    # {1, theta/2} is not closed under multiplication
    with pytest.raises(ValueError):
        NumberField([-2, 0, 1], [[1, 0], [0, F(1, 2)]])
    # dependent rows
    with pytest.raises(ValueError, match="dependent"):
        NumberField([-2, 0, 1], [[1, 0], [2, 0]])


SCENARIOS = Path(__file__).with_name("scenarios")


def defining_polynomials():
    """Every preset's, corpus field's and test scenario field's polynomial, by label."""
    polys = {f"preset {name}": preset_field(name).poly for name in sorted(PRESET_FIELDS)}
    polys.update({f"corpus {name}": benchmark_corpus().FIELDS[name][0]
                  for name in sorted(benchmark_corpus().FIELDS)})
    polys.update({f"scenario {path.stem}": parse_scenario(path.read_text()).field.poly
                  for path in sorted(SCENARIOS.glob("*.ini"))})
    return polys


POLYS = defining_polynomials()


def ring_solve_spy(monkeypatch):
    """The fields whose construction calls `_ring_stable`, in call order."""
    calls, real = [], NumberField._ring_stable
    monkeypatch.setattr(NumberField, "_ring_stable",
                        lambda self, *args: calls.append(self) or real(self, *args))
    return calls


@pytest.mark.parametrize("poly", list(POLYS.values()), ids=list(POLYS))
def test_the_power_basis_is_an_order_without_the_ring_solve(poly, monkeypatch):
    d = len(poly) - 1
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    calls = ring_solve_spy(monkeypatch)
    k = NumberField(poly, eye)
    assert calls == []
    # the route any other basis takes: the ring solve finds 1 in the span and the
    # span a ring, and the Gram matrix and discriminant are computed from the basis
    assert k._ring_stable(eye, [int(r == 0) for r in range(d)]) == (True, True)
    gram = mat_mul(mat_mul(eye, k.trace_form), transpose(eye))
    assert k.trace_gram == gram and k.discriminant == int(mat_det(gram))
    r = sturm_real_root_count(poly)
    assert k.signature == (r, (d - r) // 2)


def test_only_a_basis_other_than_the_power_basis_runs_the_ring_solve(monkeypatch):
    calls = ring_solve_spy(monkeypatch)
    for name in PRESET_FIELDS:
        preset_field(name)
    assert [k.name for k in calls] == ["Q_sqrt5", "Q_sqrt-3"]
    calls.clear()
    fields = [corpus_field(name) for name in CORPUS_FIELDS]
    others = [k for k in fields if k.basis_matrix != [[int(i == j) for j in range(k.degree)]
                                                      for i in range(k.degree)]]
    assert calls == others and [k.poly for k in others] == [(3, 0, 1), (-5, 0, 1)]


def test_validation_rejects_wrong_discriminant():
    with pytest.raises(ValueError, match="discriminant"):
        NumberField([-2, 0, 1], [[1, 0], [0, 1]], claimed_discriminant=5)


def test_cm_assertion_requires_no_real_embeddings():
    with pytest.raises(ValueError, match="CM"):
        NumberField([-2, 0, 1], [[1, 0], [0, 1]], cm_asserted=True)
    k = NumberField([1, 0, 0, 0, 1], [[1, 0, 0, 0], [0, 1, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]],
                    cm_asserted=True)  # x^4 + 1, cyclotomic Z[zeta_8]
    assert k.is_cm


def test_quadratic_field_input_checks():
    for bad in (0, 1, 4, 12, -4):
        with pytest.raises(ValueError):
            quadratic_field(bad)
    assert quadratic_field(-7).discriminant == -7   # -7 % 4 == 1 in Python
    assert quadratic_field(3).discriminant == 12


def test_cm_flags_on_presets():
    assert preset_field("Q").is_totally_real
    assert preset_field("Q_sqrt2").is_totally_real
    assert not preset_field("Q_i").is_totally_real
    assert preset_field("Q_i").is_cm           # r=0, d=2 is automatic
    assert preset_field("Q_sqrt-3").is_cm
    assert not preset_field("Q_sqrt2").is_cm


def test_rational_field_basics():
    q = rational_field()
    assert q.degree == 1
    assert q.discriminant == 1
    assert q.places == [("real", q.places[0][1])]
    x = q.element([F(5, 3)])
    assert x.trace() == F(5, 3)
    assert x.norm() == F(5, 3)
    assert q.embed_vector([x]) == pytest.approx([5 / 3])


def test_quartic_field_with_known_discriminant():
    # Z[zeta_8] for x^4 + 1: discriminant 256, signature (0, 2)
    k = NumberField([1, 0, 0, 0, 1],
                    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                    claimed_discriminant=256)
    assert k.signature == (0, 2)
    z = k.theta()
    assert z ** 4 == -1
    assert z.trace() == 0
    assert z.norm() == 1
    duals = complementary_basis(k)
    for i, e in enumerate(duals):
        for j, b in enumerate(k.element(row) for row in k.basis_matrix):
            assert (e * b).trace() == (1 if i == j else 0)


def test_preset_names_round_trip():
    for name in PRESET_FIELDS:
        assert preset_field(name).name == name
    with pytest.raises(ValueError, match="unknown preset"):
        preset_field("Q_sqrt7")


CORPUS_FIELDS = sorted(benchmark_corpus().FIELDS)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(CORPUS_FIELDS), st.integers(1, 3), st.data())
def test_theta_images_are_the_products_by_powers_of_theta(name, n, data):
    # image j of a flattened K-vector holds theta^j times each d-block, and the
    # multiplication matrix of an element has that element's images as columns
    k = corpus_field(name)
    d = k.degree
    z = data.draw(st.lists(st.integers(-2 ** 64, 2 ** 64), min_size=n * d, max_size=n * d))
    images = k.theta_images(z)
    assert images == [[x for b in range(0, n * d, d)
                       for x in times_theta_power(k.poly, z[b:b + d], j)] for j in range(d)]
    assert all(type(x) is int for image in images for x in image)
    mult = k._mult_matrix(z[:d])
    assert [[row[j] for row in mult] for j in range(d)] == [
        times_theta_power(k.poly, z[:d], j) for j in range(d)]


@pytest.mark.parametrize("field", [
    *(pytest.param(lambda name=name: corpus_field(name), id=f"corpus {name}")
      for name in CORPUS_FIELDS),
    *(pytest.param(lambda name=name: preset_field(name), id=f"preset {name}")
      for name in sorted(PRESET_FIELDS))])
def test_reduction_form_is_symmetric(field):
    # the LLL Gram matrix computes its lower triangle and mirrors it
    h = field().reduction_form
    assert h == [list(col) for col in zip(*h)]


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("bound", [SHAPE_BOUND, sys.float_info.max], ids=["shape", "default"])
def test_float_of_at_the_ends_of_its_range(bound):
    top, low = Fraction(bound), Fraction(1 / bound)
    for x in (top, low, -top, -low, F(0)):
        assert float_bits(float_of(x, "x", bound)) == float_bits(float(x))
    part = F(1, 2 ** 60)
    for x in (top * (1 + part), low * (1 - part), -top * (1 + part)):
        with pytest.raises(ConditioningError) as exc:
            float_of(x, "x", bound)
        shown = Decimal(x.numerator) / x.denominator
        assert str(exc.value) == f"x {shown:.3e} is outside the float range"
    with pytest.raises(ConditioningError, match=r"^x 1\.000e\+400 is outside the float range$"):
        float_of(F(10) ** 400, "x", bound)


@settings(max_examples=300, deadline=None)
@given(st.integers(-2 ** 1100, 2 ** 1100), st.integers(1, 2 ** 1100),
       st.sampled_from([SHAPE_BOUND, sys.float_info.max]))
def test_float_of_is_float_inside_the_exact_range_and_refuses_outside(num, den, bound):
    x = F(num, den)
    if x == 0 or F(1 / bound) <= abs(x) <= F(bound):
        assert float_bits(float_of(x, "x", bound)) == float_bits(float(x))
    else:
        with pytest.raises(ConditioningError, match="outside the float range"):
            float_of(x, "x", bound)
