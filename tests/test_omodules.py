"""Fractional ideals, pseudo-based modules, and trace duality."""

from fractions import Fraction

import pytest

from adelic import (
    ConditioningError,
    FieldElement,
    FractionalIdeal,
    KModule,
    KRankTracker,
    NumberField,
    flatten_kvector,
    module_from_matrix,
    preset_field,
    quadratic_field,
    rational_field,
    standard_module,
)

from adelic import omodules
from adelic.exactla import mat_inv
from field_reference import complementary_basis, contains, t_n

F = Fraction

PRESETS = ("Q", "Q_sqrt2", "Q_sqrt5", "Q_i", "Q_sqrt-3")


@pytest.fixture(params=PRESETS, ids=str)
def field(request):
    return preset_field(request.param)


def test_whole_ring_dual_matches_complementary_basis(field):
    dual = FractionalIdeal.whole_ring(field).trace_dual()
    expected = FractionalIdeal(field, complementary_basis(field))
    assert dual.equals(expected)


def test_ideal_biduality(field):
    ring = FractionalIdeal.whole_ring(field)
    assert ring.trace_dual().trace_dual().equals(ring)
    x = field.element([F(3)] + [F(1)] * (field.degree - 1))
    principal = FractionalIdeal.whole_ring(field).scaled(x)
    assert principal.trace_dual().trace_dual().equals(principal)


def test_principal_ideal_dual_is_scaled_ring_dual(field):
    x = field.element([F(2)] + [F(1)] * (field.degree - 1))
    lhs = FractionalIdeal.whole_ring(field).scaled(x).trace_dual()
    rhs = FractionalIdeal.whole_ring(field).trace_dual().scaled(x.inverse())
    assert lhs.equals(rhs)


def test_discriminant_scales_dual_into_ring(field):
    """disc * (trace dual of O) lands inside O, elementwise and exactly."""
    ring = FractionalIdeal.whole_ring(field)
    dual = ring.trace_dual()
    disc = field.from_rational(field.discriminant)
    for e in dual.zbasis:
        assert contains(ring, disc * e)


def test_dual_pairing_is_integral(field):
    ring = FractionalIdeal.whole_ring(field)
    dual = ring.trace_dual()
    for a in ring.zbasis:
        for b in dual.zbasis:
            assert (a * b).trace().denominator == 1


def test_sqrt2_membership_examples():
    k = quadratic_field(2)
    ring = FractionalIdeal.whole_ring(k)
    dual = ring.trace_dual()
    theta = k.theta()
    assert contains(ring, theta)
    assert not contains(ring, k.from_rational(F(1, 2)))
    assert contains(dual, theta / 4)
    assert contains(dual, k.from_rational(F(1, 2)))
    assert not contains(dual, k.from_rational(F(1, 3)))


def test_ideal_equals_different_zbases():
    k = quadratic_field(2)
    a = FractionalIdeal.whole_ring(k)
    b = FractionalIdeal(k, [k.one() + k.theta(), k.theta()])
    assert a.equals(b)
    c = FractionalIdeal(k, [k.from_rational(2), k.theta()])  # the prime over 2
    assert not a.equals(c)


def test_ideal_validation_rejects_non_modules():
    k = quadratic_field(2)
    with pytest.raises(ValueError):
        FractionalIdeal(k, [k.one(), k.from_rational(F(1, 2))])  # not full rank
    with pytest.raises(ValueError):
        FractionalIdeal(k, [k.one(), k.theta() / 3])  # not closed under theta


def test_module_zbasis_and_membership():
    k = quadratic_field(2)
    m = standard_module(k, 2)
    assert len(m.zbasis) == 4
    one, theta, zero = k.one(), k.theta(), k.zero()
    assert contains(m, (theta, one))
    assert not contains(m, (k.from_rational(F(1, 2)), zero))


def test_module_equals_under_unimodular_change():
    k = quadratic_field(2)
    one, theta, zero = k.one(), k.theta(), k.zero()
    a = module_from_matrix(k, [[one, theta], [zero, one]])
    b = module_from_matrix(k, [[one, zero], [zero, one]])
    # columns (1,0) and (theta,1): same O-span as the standard module?
    # (theta,1) - theta*(1,0) = (0,1), so yes.
    assert a.equals(b)
    c = module_from_matrix(k, [[k.from_rational(2), zero], [zero, one]])
    assert not a.equals(c)


def test_matrix_module_generated_by_columns():
    k = quadratic_field(2)
    one, zero = k.one(), k.zero()
    half = k.from_rational(F(1, 2))
    m = module_from_matrix(k, [[half, zero], [zero, one]])
    assert contains(m, (half, zero))
    assert not contains(m, (k.from_rational(F(1, 4)), zero))


def test_rank_two_dual_of_diagonal_half():
    """Over Q: dual of (1/2)Z x Z is 2Z x Z."""
    q = rational_field()
    half = q.from_rational(F(1, 2))
    two = q.from_rational(2)
    one, zero = q.one(), q.zero()
    m = module_from_matrix(q, [[half, zero], [zero, one]])
    expected = module_from_matrix(q, [[two, zero], [zero, one]])
    assert m.trace_dual().equals(expected)


def test_matrix_module_dual_follows_inverse_transpose(field):
    """Dual of A*O^n has pseudo-basis (dual of O, columns of A^-t)."""
    one = field.one()
    theta = field.theta()
    a = [[one + theta, theta], [one, one + one]]
    if field.degree == 1:
        a = [[field.from_rational(2), one], [one, field.from_rational(3)]]
    m = module_from_matrix(field, a)
    dual = m.trace_dual()
    ring_dual = FractionalIdeal.whole_ring(field).trace_dual()
    ainv = mat_inv(a)  # rows of A^-1 are columns of A^-t
    expected = KModule(field, [(ring_dual, tuple(row)) for row in ainv])
    assert dual.equals(expected)


def test_module_biduality(field):
    one, zero = field.one(), field.zero()
    theta = field.theta()
    m = module_from_matrix(field, [[one, theta], [zero, one + one]])
    assert m.trace_dual().trace_dual().equals(m)


def test_module_dual_pairing_integral(field):
    m = standard_module(field, 2)
    dual = m.trace_dual()
    for za in m.zbasis:
        for zb in dual.zbasis:
            assert t_n(za, zb).denominator == 1


def test_trace_dual_cross_check_catches_a_wrong_pseudo_route(monkeypatch, field):
    # doubled ideal duals give a dual module that the pairing check rejects
    m = module_from_matrix(field, [[field.one(), field.theta()],
                                   [field.zero(), field.from_rational(2)]])
    ideal_dual = FractionalIdeal.trace_dual
    two = field.from_rational(2)
    monkeypatch.setattr(FractionalIdeal, "trace_dual",
                        lambda self: ideal_dual(self).scaled(two))
    with pytest.raises(ConditioningError, match="trace dual routes disagree"):
        m.trace_dual()


def test_pairing_matrix_is_the_elementwise_trace_sum(field):
    m = module_from_matrix(field, [[field.one(), field.theta()],
                                   [field.zero(), field.from_rational(2)]])
    dual = standard_module(field, 2)
    assert m.pairing(dual) == [[t_n(x, y) for y in dual.zbasis] for x in m.zbasis]


def test_trace_dual_inverts_no_matrix_over_k(monkeypatch):
    # the dual's pseudo-vector matrix (W^-1)^t comes with its inverse W^t
    k_entries = []
    inverse = omodules.mat_inv

    def spy(a):
        k_entries.append(any(isinstance(x, FieldElement) for row in a for x in row))
        return inverse(a)

    monkeypatch.setattr(omodules, "mat_inv", spy)
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for k in (preset_field("Q_sqrt2"), cubic):
        one, theta = k.one(), k.theta()
        m = module_from_matrix(k, [[one + theta, theta], [one, k.from_rational(3)]])
        k_entries.clear()
        dual = m.trace_dual()
        bidual = dual.trace_dual()
        assert k_entries and not any(k_entries)
        assert bidual.equals(m)


def test_pseudo_basis_with_scaled_ideals():
    q = rational_field()
    one, zero = q.one(), q.zero()
    two_z = FractionalIdeal.whole_ring(q).scaled(q.from_rational(2))
    z = FractionalIdeal.whole_ring(q)
    m = KModule(q, [(two_z, (one, zero)), (z, (zero, one))])
    flat = sorted(flatten_kvector(v) for v in m.zbasis)
    assert flat == [[F(0), F(1)], [F(2), F(0)]]
    dual = m.trace_dual()
    expected = module_from_matrix(
        q, [[q.from_rational(F(1, 2)), zero], [zero, one]])
    assert dual.equals(expected)


def test_kmodule_validation():
    k = quadratic_field(2)
    ring = FractionalIdeal.whole_ring(k)
    one, zero = k.one(), k.zero()
    with pytest.raises(ValueError):
        KModule(k, [(ring, (one, zero)), (ring, (one, zero))])  # dependent
    with pytest.raises(ValueError):
        KModule(k, [(ring, (one,)), (ring, (one, zero))])  # ragged rank


def test_krank_tracker_works_over_k_not_q():
    k = quadratic_field(2)
    m = standard_module(k, 2)  # Z-basis (1,0), (theta,0), (0,1), (0,theta)
    assert m.flat == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    identity = [[int(i == j) for j in range(4)] for i in range(4)]
    tr = KRankTracker(m, identity)
    assert tr.try_add((1, 0, 0, 0))
    # theta*(1,0) is Q-independent of (1,0) but K-dependent
    assert not tr.try_add((0, 1, 0, 0))
    assert tr.try_add((0, 1, 1, 0))  # (theta, 1)
    assert tr.rank == 2
    assert not tr.try_add((1, 0, 0, 1))  # (1, theta)
    # over the basis with rows U z a point with coordinates c is c U on the
    # Z-basis: rows (1,1), (theta,0), (0,1), (2,theta) of a unimodular U
    u = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 0, 1]]
    tr = KRankTracker(m, u)
    assert tr.try_add((0, 0, 1, 0))  # (0, 1)
    # -2 (1,1) + 2 (0,1) + (2,theta) = (0, theta), a K-multiple of (0, 1);
    # read without U these coordinates would give (-2, 2 + theta)
    assert not tr.try_add((-2, 0, 2, 1))
    assert tr.try_add((0, 1, 0, 0))  # (theta, 0)
    assert not tr.try_add((1, 0, 0, 0))  # (1, 1)
    assert tr.rank == 2


def test_t_n_is_the_componentwise_trace_sum():
    k = quadratic_field(2)
    one, theta = k.one(), k.theta()
    assert t_n((one, theta), (one, theta)) == 2 + 4  # Tr(1) + Tr(2)
    assert t_n((theta,), (theta,)) == 4


def test_flatten_kvector_layout():
    k = quadratic_field(2)
    x = k.element([F(1), F(2)])
    y = k.element([F(3), F(4)])
    assert flatten_kvector((x, y)) == [F(1), F(2), F(3), F(4)]
