"""Number field arithmetic, trace form, discriminant, and embeddings."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic import (
    NumberField,
    PRESET_FIELDS,
    preset_field,
    quadratic_field,
    rational_field,
)
from adelic.numberfield import count_real_roots
from field_reference import complementary_basis

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


def test_count_real_roots():
    assert count_real_roots([F(-2), F(0), F(1)]) == 2       # x^2 - 2
    assert count_real_roots([F(1), F(0), F(1)]) == 0        # x^2 + 1
    assert count_real_roots([F(-1), F(-1), F(0), F(1)]) == 1  # x^3 - x - 1
    assert count_real_roots([F(0), F(-2), F(0), F(1)]) == 3   # x^3 - 2x


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


def test_embed_sqrt2_orders_real_roots_ascending():
    k = quadratic_field(2)
    e = k.embed(k.theta())
    assert e == pytest.approx([-math.sqrt(2), math.sqrt(2)], abs=1e-12)


def test_embed_gaussian_units():
    k = quadratic_field(-1)
    e = k.embed(k.theta())
    assert e == pytest.approx([0.0, 1.0], abs=1e-12)
    ec = k.embed(k.theta(), conjugated=True)
    assert ec == pytest.approx([0.0, -1.0], abs=1e-12)


def test_embed_vector_is_place_major():
    k = quadratic_field(2)
    s2 = math.sqrt(2)
    one, theta = k.one(), k.theta()
    v = k.embed_vector([one, theta])
    # place 1 holds sigma_1 of both entries, then place 2
    assert v == pytest.approx([1.0, -s2, 1.0, s2], abs=1e-12)


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
        rhs = float(np.sum(diag * k.embed(x) * k.embed(y, conjugated=True)))
        assert abs(lhs - rhs) < 1e-9 * (1 + abs(lhs))


def test_validation_rejects_bad_polynomials():
    with pytest.raises(ValueError, match="monic"):
        NumberField([2, 0, 2], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="squarefree"):
        NumberField([0, 0, 1], [[1, 0], [0, 1]])
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
    assert q.embed(x) == pytest.approx([5 / 3])


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
