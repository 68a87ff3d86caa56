"""Fractional ideals, pseudo-based modules, and trace duality."""

import random
from fractions import Fraction

import pytest

from adelic import (
    ConditioningError,
    FieldElement,
    FractionalIdeal,
    KModule,
    KRankTracker,
    NumberField,
    module_from_matrix,
    preset_field,
    quadratic_field,
    rational_field,
    standard_module,
)

from adelic import omodules
from adelic.cli import main
from adelic.exactla import RankTracker, identity_matrix, transpose
from field_reference import (
    complementary_basis,
    contains,
    flatten_kvector,
    gauss_jordan_solve,
    kvectors,
    t_n,
)

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
    assert len(m.int_flat[0]) == 4
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
    ainv = gauss_jordan_solve(a, identity_matrix(2))  # rows of A^-1 are columns of A^-t
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
    for za in kvectors(field, m.int_flat):
        for zb in kvectors(field, dual.int_flat):
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
    num, s = m.pairing(dual)
    assert [[F(x, s) for x in row] for row in num] == [
        [t_n(x, y) for y in kvectors(field, dual.int_flat)] for x in kvectors(field, m.int_flat)]


def test_trace_dual_inverts_no_matrix_over_k(monkeypatch):
    # (W^-1)^t is read through the regular representation R(W) over Q:
    # no determinant, solve or unimodularity test sees a field element
    k_entries = []

    def has_field_element(x):
        if isinstance(x, FieldElement):
            return True
        return isinstance(x, (list, tuple)) and any(map(has_field_element, x))

    def spy(original):
        def checked(*args):
            k_entries.append(has_field_element(args))
            return original(*args)
        return checked

    for name in ("mat_det", "solve_scaled", "is_unimodular", "is_unimodular_ratio"):
        monkeypatch.setattr(omodules, name, spy(getattr(omodules, name)))
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for k in (preset_field("Q_sqrt2"), cubic):
        one, theta = k.one(), k.theta()
        m = module_from_matrix(k, [[one + theta, theta], [one, k.from_rational(3)]])
        k_entries.clear()
        dual = m.trace_dual()
        bidual = dual.trace_dual()
        assert bidual.equals(m)
        assert len(k_entries) >= 5 and not any(k_entries)


def test_pseudo_basis_with_scaled_ideals():
    q = rational_field()
    one, zero = q.one(), q.zero()
    two_z = FractionalIdeal.whole_ring(q).scaled(q.from_rational(2))
    z = FractionalIdeal.whole_ring(q)
    m = KModule(q, [(two_z, (one, zero)), (z, (zero, one))])
    flat = sorted(m.flat)
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


CUBIC = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
QUARTIC = NumberField([1, 0, 0, 0, 1], [[int(i == j) for j in range(4)] for i in range(4)])


def k_dependent_rows(k):
    """Pseudo-vectors that are K-dependent but Q-independent coordinate-wise."""
    theta = k.theta()
    if k.degree == 2:
        return [(k.one(), theta), (theta, k.from_rational(2))]  # over Q(sqrt 2)
    # theta^(i+j): each row is theta times the one before
    return [tuple(theta ** (i + j) for j in range(3)) for i in range(3)]


def rank_over_q(rows):
    tracker = RankTracker(len(rows[0]))
    return sum(tracker.try_add(row) for row in rows)


@pytest.mark.parametrize("k", [quadratic_field(2), CUBIC], ids=["Q_sqrt2", "cubic"])
def test_kmodule_rejects_k_dependent_vectors_that_are_q_independent(k):
    rows = k_dependent_rows(k)
    assert rank_over_q([flatten_kvector(w) for w in rows]) == len(rows)
    ring = FractionalIdeal.whole_ring(k)
    with pytest.raises(ValueError, match="singular matrix"):
        KModule(k, [(ring, w) for w in rows])


def test_cli_rejects_a_k_dependent_module_matrix(capsys, tmp_path):
    # the matrices of k_dependent_rows, symmetric, so rows and columns agree;
    # both fields have two places
    fields = {
        "quadratic": ("preset = Q_sqrt2", 2, "[[1,0; 0,1], [0,1; 2,0]]"),
        "cubic": ("poly = -1, -1, 0, 1\nbasis = [[1; 0; 0], [0; 1; 0], [0; 0; 1]]", 3,
                  "[[1,0,0; 0,1,0; 0,0,1], [0,1,0; 0,0,1; 1,1,0], [0,0,1; 1,1,0; 0,1,1]]"),
    }
    for name, (field_lines, rank, matrix) in fields.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(f"[field]\n{field_lines}\n[module]\nrank = {rank}\nmatrix = {matrix}\n"
                        "[body.v1]\nshape = ball\nradius = 1\n"
                        "[body.v2]\nshape = ball\nradius = 1\n")
        assert main(["polar", str(path), "--machine"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == "error: [module] matrix: singular matrix\n"


def random_invertible_rows(k, n, rng):
    while True:
        rows = [tuple(k.element([rng.randint(-3, 3) for _ in range(k.degree)])
                      for _ in range(n)) for _ in range(n)]
        try:
            return rows, gauss_jordan_solve(rows, identity_matrix(n))
        except ValueError:
            continue


@pytest.mark.parametrize("k", [preset_field(name) for name in PRESETS] + [CUBIC, QUARTIC],
                         ids=list(PRESETS) + ["cubic", "quartic"])
def test_trace_dual_vectors_are_the_inverse_transpose(k):
    rng = random.Random(k.degree)
    ring = FractionalIdeal.whole_ring(k)
    for n in range(1, 5):
        rows, inverse = random_invertible_rows(k, n, rng)
        dual = KModule(k, [(ring, w) for w in rows]).trace_dual()
        assert [w for _, w in dual.pseudo] == [tuple(col) for col in transpose(inverse)]


def test_flat_multiplies_no_field_elements(monkeypatch):
    k = preset_field("Q_sqrt5")
    half = FractionalIdeal.whole_ring(k).scaled(k.element([F(1, 2), F(3, 2)]))
    rows = [(k.one(), k.theta()), (k.element([F(2, 3), F(-1)]), k.from_rational(5))]
    m = KModule(k, [(half, rows[0]), (half.trace_dual(), rows[1])])
    calls = []
    mul = FieldElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", counted)
    monkeypatch.setattr(FieldElement, "__rmul__", counted)
    flat = m.flat
    assert calls == []
    monkeypatch.undo()
    expected = [flatten_kvector(tuple(alpha * x for x in w)) for a, w in m.pseudo
                for alpha in a.zbasis]
    assert flat == expected


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


def test_krank_tracker_rejects_coordinates_of_the_wrong_length():
    m = standard_module(quadratic_field(2), 2)
    tr = KRankTracker(m, [[int(i == j) for j in range(4)] for i in range(4)])
    for coords in ((1, 0, 0), (1, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="length"):
            tr.try_add(coords)
    assert tr.rank == 0


def test_krank_tracker_actions_are_integer_matrices():
    # half-integral ideal bases (Q_sqrt5, Q_sqrt-3) and a scaled ideal
    # still act on their Z-bases by integer matrices
    for name in ("Q_sqrt5", "Q_sqrt-3", "Q_sqrt2"):
        k = preset_field(name)
        half = FractionalIdeal.whole_ring(k).scaled(k.element([F(1, 2), F(3, 2)]))
        m = KModule(k, [(half, (k.one(), k.zero())),
                        (FractionalIdeal.whole_ring(k).trace_dual(), (k.theta(), k.one()))])
        u = [[1, 0, 0, 0], [2, 1, 0, 0], [0, -3, 1, 0], [0, 0, 5, 1]]
        tr = KRankTracker(m, u)
        assert all(type(x) is int for action in tr.actions for row in action for x in row)
        assert tr.try_add((1, 0, 0, 0)) and tr.try_add((0, 0, 1, 0))
        assert all(type(x) is int for row in tr.span.rows for x in row)


def test_ideal_actions_are_checked_for_integrality():
    k = quadratic_field(2)
    ring = FractionalIdeal.whole_ring(k)
    assert ring.actions[1] == [[0, 1], [2, 0]]  # theta on 1, theta
    assert all(type(x) is int for action in ring.actions for row in action for x in row)
    with pytest.raises(ValueError, match="not stable under the ring"):
        FractionalIdeal(k, [k.element([F(1, 2), F(0)]), k.theta()])


def test_trace_dual_takes_no_independence_determinant(monkeypatch):
    # (W^-1)^t is invertible, so the dual module is built without det R(W*)
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    one, theta = cubic.one(), cubic.theta()
    m = module_from_matrix(cubic, [[one + theta, theta * theta], [one, 3 * one]])
    dets = []
    mat_det = omodules.mat_det
    monkeypatch.setattr(omodules, "mat_det", lambda a: dets.append(len(a)) or mat_det(a))
    dual = m.trace_dual()
    assert dets == []
    assert dual.equals(KModule(cubic, dual.pseudo))
    assert dual.trace_dual().equals(m)


def test_modules_over_one_field_share_the_ring_and_its_dual(monkeypatch):
    k = preset_field("Q_sqrt2")
    one, zero, theta = k.one(), k.zero(), k.theta()
    first = module_from_matrix(k, [[one, theta], [zero, one]])
    second = module_from_matrix(k, [[one + theta, zero], [one, one]])
    ring = FractionalIdeal.whole_ring(k)
    assert all(a is ring for m in (first, second) for a, _ in m.pseudo)
    assert standard_module(k, 3).pseudo[0][0] is ring
    first_dual = first.trace_dual()
    # an ideal dual is a d x d solve; the second module makes only its
    # nd x nd pseudo-vector solve
    sizes = []
    solve = omodules.solve_scaled
    monkeypatch.setattr(omodules, "solve_scaled", lambda a, b: sizes.append(len(a)) or solve(a, b))
    second_dual = second.trace_dual()
    assert sizes == [4]
    assert second_dual.pseudo[0][0] is first_dual.pseudo[0][0] is ring.trace_dual()


def test_module_dual_builds_one_dual_per_ideal(monkeypatch, field):
    calls = []
    ideal_dual = FractionalIdeal.trace_dual

    def counted(self):
        calls.append(self)
        return ideal_dual(self)

    monkeypatch.setattr(FractionalIdeal, "trace_dual", counted)
    one, zero, theta = field.one(), field.zero(), field.theta()
    m = module_from_matrix(field, [[one, theta, zero], [zero, one, theta], [one, zero, one + one]])
    dual = m.trace_dual()
    assert len(calls) == 1
    assert len({id(a) for a, _ in dual.pseudo}) == 1
    assert dual.trace_dual().equals(m)
