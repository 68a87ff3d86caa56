"""Fractional ideals, pseudo-based modules, and trace duality."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adelic import (
    ConditioningError,
    FieldElement,
    FractionalIdeal,
    KModule,
    KRankTracker,
    NumberField,
    adelic_equal,
    adelic_polar,
    lattice_from_module,
    module_from_matrix,
    parse_scenario,
    preset_field,
    quadratic_field,
    rational_field,
    standard_module,
    transference_check,
)

from adelic import exactla, omodules
from adelic.cli import load_scenario_text, main
from adelic.exactla import RankTracker, integer_matrix, is_unimodular, mat_mul, transpose
from field_reference import (
    blockwise_regular,
    complementary_basis,
    contains,
    flat_pairing,
    flatten_kvector,
    fraction_krank_decisions,
    gauss_jordan_solve,
    kcombination,
    kvectors,
    preimage_by_field_arithmetic,
    random_module,
    rational_flat,
    t_n,
)
from test_known_lattices import corpus_field
from test_transference import benchmark_corpus

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
    ainv = gauss_jordan_solve(a, [[1, 0], [0, 1]])  # rows of A^-1 are columns of A^-t
    expected = KModule(field, [(ring_dual, tuple(row)) for row in ainv])
    assert dual.equals(expected)


def test_module_biduality(field):
    one, zero = field.one(), field.zero()
    theta = field.theta()
    m = module_from_matrix(field, [[one, theta], [zero, one + one]])
    assert m.trace_dual().trace_dual().equals(m)


def test_module_equality_reads_ideals_and_vectors_of_a_pseudo_basis():
    # identical pseudo-bases are equal at once, across field objects of one
    # presentation; the same vectors over another ideal are another module,
    # and another pseudo-basis of the same module is found by the Z-bases
    k, other = quadratic_field(2), quadratic_field(2)
    one, zero = k.one(), k.zero()
    ring = FractionalIdeal.whole_ring(k)
    two = ring.scaled(k.from_rational(2))
    m = KModule(k, [(ring, (one, zero)), (ring, (zero, k.theta()))])
    same = KModule(other, [(FractionalIdeal.whole_ring(other), (other.one(), other.zero())),
                           (FractionalIdeal.whole_ring(other), (other.zero(), other.theta()))])
    assert m.equals(same) and same.equals(m)
    assert not m.equals(KModule(k, [(two, (one, zero)), (ring, (zero, k.theta()))]))
    assert not m.equals(KModule(k, [(ring, (one, zero)), (ring, (zero, one))]))
    assert m.equals(KModule(k, [(two, (one / 2, zero)), (ring, (zero, k.theta()))]))


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


def assert_pairings_are_trace_sums(ideals):
    for a in ideals:
        for b in ideals:
            num, s = a.pairing(b)
            assert [[F(x, s) for x in row] for row in num] == [
                [(x * y).trace() for y in b.zbasis] for x in a.zbasis]


def test_pairing_matrix_is_the_elementwise_trace_sum(field):
    ring = FractionalIdeal.whole_ring(field)
    assert_pairings_are_trace_sums([ring, ring.trace_dual(), ring.scaled(field.theta() + 3)])


def test_trace_dual_inverts_no_matrix_over_k(monkeypatch):
    # (W^-1)^t is read through the regular representation R(W) over Q:
    # no solve or unimodularity test sees a field element
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

    for name in ("solve_scaled", "is_unimodular", "is_unimodular_ratio"):
        monkeypatch.setattr(omodules, name, spy(getattr(omodules, name)))
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for k in (preset_field("Q_sqrt2"), cubic):
        one, theta = k.one(), k.theta()
        m = module_from_matrix(k, [[one + theta, theta], [one, k.from_rational(3)]])
        k_entries.clear()
        dual = m.trace_dual()
        bidual = dual.trace_dual()
        assert bidual.equals(m)
        # one solve for the ring's dual ideal and one unimodular test for it,
        # then one ideal check per module dual; the dual ideal knows its dual
        assert k_entries == [False] * 4


def test_pseudo_basis_with_scaled_ideals():
    q = rational_field()
    one, zero = q.one(), q.zero()
    two_z = FractionalIdeal.whole_ring(q).scaled(q.from_rational(2))
    z = FractionalIdeal.whole_ring(q)
    m = KModule(q, [(two_z, (one, zero)), (z, (zero, one))])
    flat = sorted(rational_flat(m))
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
    """Rank of rational rows, each passed scaled to integers."""
    tracker = RankTracker(len(rows[0]))
    return sum(tracker.try_add(integer_matrix([row])[0][0]) for row in rows)


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
            return rows, gauss_jordan_solve(rows, [[int(i == j) for j in range(n)]
                                                   for i in range(n)])
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


@pytest.mark.parametrize("name", sorted(benchmark_corpus().FIELDS))
def test_regular_representation_is_the_blockwise_transposed_multiplication(name):
    # row i d + k of R(W) is theta^k w_i; block (i, j) the transposed
    # multiplication matrix of W_ij, with products by long division
    k = corpus_field(name)
    for n, seed in ((1, 0), (2, 1), (3, 2)):
        module = random_module(k, n, seed)
        assert module.regular == blockwise_regular(k, module.int_vectors)
    skew = KModule(k, [(FractionalIdeal.whole_ring(k), (k.element([F(1, 3)] * k.degree),))])
    assert skew.regular == blockwise_regular(k, skew.int_vectors)


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
    flat = rational_flat(m)
    assert calls == []
    monkeypatch.undo()
    expected = [flatten_kvector(tuple(alpha * x for x in w)) for a, w in m.pseudo
                for alpha in a.zbasis]
    assert flat == expected


def tracker_on(module, u):
    """A K-rank tracker on the exact rows of the basis U z, z the module's Z-basis."""
    num, s = module.int_flat
    return KRankTracker(module.field, (mat_mul(u, num), s))


def test_krank_tracker_works_over_k_not_q():
    k = quadratic_field(2)
    m = standard_module(k, 2)  # Z-basis (1,0), (theta,0), (0,1), (0,theta)
    assert rational_flat(m) == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    tr = KRankTracker(k, m.int_flat)
    assert tr.try_add((1, 0, 0, 0))
    # theta*(1,0) is Q-independent of (1,0) but K-dependent
    assert not tr.try_add((0, 1, 0, 0))
    assert tr.try_add((0, 1, 1, 0))  # (theta, 1)
    assert tr.rank == 2
    assert not tr.try_add((1, 0, 0, 1))  # (1, theta)
    # over the basis with rows U z a point with coordinates c is c U z:
    # rows (1,1), (theta,0), (0,1), (2,theta) of a unimodular U
    u = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 0, 1]]
    tr = tracker_on(m, u)
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
    tr = KRankTracker(m.field, m.int_flat)
    for coords in ((1, 0, 0), (1, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="length"):
            tr.try_add(coords)
    assert tr.rank == 0


KRANK_FIELDS = {name: preset_field(name) for name in ("Q_sqrt2", "Q_sqrt5", "Q_sqrt-3")}
KRANK_FIELDS["x3-x-1"] = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def preimages_on(module, u, points):
    """Per point c on the basis U z, the K-vector c U z by field arithmetic."""
    k, zbasis = module.field, kvectors(module.field, module.int_flat)
    return [kcombination(k, module.rank, [sum(x * y for x, y in zip(c, col)) for col in zip(*u)],
                         zbasis) for c in points]


@st.composite
def krank_cases(draw, fields=KRANK_FIELDS):
    """A module over ideals O, xO and the dual of O, a unimodular U, and points
    on the basis U z: random ones, sums of two earlier ones, and theta times
    an earlier one (K-dependent, and Q-independent unless zero)."""
    k = fields[draw(st.sampled_from(sorted(fields)))]
    d = k.degree
    n = draw(st.integers(1, 3 if d == 2 else 2))
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)

    def element():
        return k.element([draw(small) for _ in range(d)])

    ring, pseudo = FractionalIdeal.whole_ring(k), []
    for _ in range(n):
        kind = draw(st.sampled_from(["ring", "scaled", "dual"]))
        x = element()
        ideal = {"ring": ring, "dual": ring.trace_dual()}.get(kind)
        if ideal is None:
            assume(not x.is_zero())
            ideal = ring.scaled(x)
        pseudo.append((ideal, tuple(element() for _ in range(n))))
    try:
        module = KModule(k, pseudo)
    except ValueError:
        assume(False)
    nd = n * d
    u = [[int(i == j) for j in range(nd)] for i in range(nd)]
    for _ in range(draw(st.integers(0, 2 * nd))):
        i, j = draw(st.integers(0, nd - 1)), draw(st.integers(0, nd - 1))
        c = draw(st.integers(-2, 2))
        u[i] = [-x for x in u[i]] if i == j else [x + c * y for x, y in zip(u[i], u[j])]
    basis = mat_mul(u, rational_flat(module))  # the rows U z, flattened
    points = []
    for _ in range(draw(st.integers(1, 2 * n + 2))):
        kind = draw(st.sampled_from(["random", "sum", "theta"]) if points else st.just("random"))
        if kind == "random":
            points.append(tuple(draw(st.integers(-2, 2)) for _ in range(nd)))
        elif kind == "sum":
            p, q = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            points.append(tuple(x + y for x, y in zip(p, q)))
        else:
            c = draw(st.sampled_from(points))
            w = [sum(x * y for x, y in zip(c, col)) for col in zip(*basis)]
            theta_w = flatten_kvector(k.theta() * k.element(w[i:i + d])
                                      for i in range(0, nd, d))
            coords = [row[0] for row in gauss_jordan_solve(transpose(basis),
                                                           [[x] for x in theta_w])]
            assert all(x.denominator == 1 for x in coords)  # theta O-stable
            points.append(tuple(int(x) for x in coords))
    return module, u, points


@settings(max_examples=40, deadline=None)
@given(krank_cases())
def test_krank_decisions_match_a_fraction_reference(case):
    module, u, points = case
    tr = tracker_on(module, u)
    decisions = [tr.try_add(c) for c in points]
    assert decisions == fraction_krank_decisions(module.field, preimages_on(module, u, points))
    assert tr.rank == sum(decisions)


# Q(sqrt 5) with 1 listed second in its integral basis ((1 + sqrt 5)/2, 1)
ONE_SECOND = {"Q_sqrt5 1 second": NumberField([-5, 0, 1], [[F(1, 2), F(1, 2)], [1, 0]])}


@settings(max_examples=20, deadline=None)
@given(krank_cases({**KRANK_FIELDS, **ONE_SECOND}))
def test_krank_tracker_offers_z_and_its_theta_images(case):
    # z = c U N is the point's power-basis numerators, whatever the integral
    # basis; on acceptance theta z, ..., theta^(d-1) z follow it
    module, u, points = case
    k, d, s = module.field, module.field.degree, module.int_flat[1]
    tr = tracker_on(module, u)
    offered = []
    span_add = tr.span.try_add
    tr.span.try_add = lambda v: offered.append(v) or span_add(v)
    for c, w in zip(points, preimages_on(module, u, points)):
        offered.clear()
        added = tr.try_add(c)
        images = [w]
        for _ in range(d - 1):
            images.append(tuple(k.theta() * x for x in images[-1]))
        want = [[s * x for x in flatten_kvector(v)] for v in images[:d if added else 1]]
        assert offered == want
        assert all(type(x) is int for v in offered for x in v)


@pytest.mark.parametrize("name", sorted(KRANK_FIELDS))
def test_krank_tracker_reads_the_rows_of_a_reduced_lattice(name):
    # half-integral ideal bases (Q_sqrt5, Q_sqrt-3), a scaled ideal, the dual
    # of O and a skewed pseudo-vector, so that LLL moves the basis: on the
    # reduced rows the tracker decides as field arithmetic on the points
    k = KRANK_FIELDS[name]
    pad = [F(0)] * (k.degree - 2)
    ring = FractionalIdeal.whole_ring(k)
    half = ring.scaled(k.element([F(1, 2), F(3, 2), *pad]))
    m = KModule(k, [(half, (k.one(), k.element([F(7), F(5), *pad]))),
                    (ring.trace_dual(), (k.theta(), k.one()))])
    lat = lattice_from_module(m)
    red = lat.reduced()
    assert red.rows != lat.rows
    nd = red.dim
    points = [[int(i == j) for j in range(nd)] for i in range(nd)]
    points += [[(3 * i * j) % 7 - 3 for j in range(nd)] for i in range(1, 4)]
    # theta times the first point, in lattice coordinates, is K-dependent on it
    num, s = red.rows
    theta_w = flatten_kvector(k.theta() * x for x in red.preimage_of(points[0]))
    coords = gauss_jordan_solve(transpose([[F(x, s) for x in row] for row in num]),
                                [[x] for x in theta_w])
    assert all(x.denominator == 1 for x, in coords)
    points.insert(1, [int(x) for x, in coords])
    tr = KRankTracker(k, red.rows)
    decisions = [tr.try_add(c) for c in points]
    preimages = [preimage_by_field_arithmetic(m, red, c) for c in points]
    assert decisions == fraction_krank_decisions(k, preimages)
    assert decisions[:2] == [True, False] and tr.rank == m.rank
    assert all(type(x) is int for row in tr.span.rows for x in row)


def test_ideal_actions_are_checked_for_integrality():
    k = quadratic_field(2)
    assert k._ring_stable([[1, 0], [0, 1]]) == (True, True)
    assert k._ring_stable([[1, 0], [0, 2]]) == (True, False)  # theta * 1 is not in Z + 2 theta Z
    half = FractionalIdeal(k, [k.element([F(1, 2), F(0)]), k.element([F(0), F(1, 2)])])
    assert half.equals(FractionalIdeal.whole_ring(k).scaled(k.from_rational(F(1, 2))))
    with pytest.raises(ValueError, match="not stable under the ring"):
        FractionalIdeal(k, [k.element([F(1, 2), F(0)]), k.theta()])
    with pytest.raises(ValueError, match="linearly dependent"):
        FractionalIdeal(k, [k.theta(), 2 * k.theta()])


def test_trace_dual_takes_no_independence_determinant(monkeypatch):
    # (W^-1)^t is invertible, so the dual module is built without eliminating
    # R(W*), and the solve with R(W) ran when the module was built
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    one, theta = cubic.one(), cubic.theta()
    m = module_from_matrix(cubic, [[one + theta, theta * theta], [one, 3 * one]])
    sizes = []
    bareiss = exactla._bareiss
    monkeypatch.setattr(exactla, "_bareiss", lambda a, n: sizes.append(n) or bareiss(a, n))
    dual = m.trace_dual()
    assert 6 not in sizes
    assert dual.equals(KModule(cubic, dual.pseudo))
    assert dual.trace_dual().equals(m)


def test_modules_over_one_field_share_the_ring_and_its_dual(monkeypatch):
    k = preset_field("Q_sqrt2")
    one, zero, theta = k.one(), k.zero(), k.theta()
    first = module_from_matrix(k, [[one, theta], [zero, one]])
    first_dual = first.trace_dual()
    # an ideal dual is a d x d solve; the second module makes only its
    # nd x nd pseudo-vector solve, with n right-hand sides, when it is built
    sizes = []
    solve = omodules.solve_scaled
    monkeypatch.setattr(omodules, "solve_scaled",
                        lambda a, b: sizes.append((len(a), len(b[0]))) or solve(a, b))
    second = module_from_matrix(k, [[one + theta, zero], [one, one]])
    assert sizes == [(4, 2)]
    second_dual = second.trace_dual()
    assert sizes == [(4, 2)]
    ring = FractionalIdeal.whole_ring(k)
    assert all(a is ring for m in (first, second) for a, _ in m.pseudo)
    assert standard_module(k, 3).pseudo[0][0] is ring
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


# Q(sqrt-5) and Q(sqrt 10) have class number 2; the ideals cO + bO listed as
# (c, coordinates of b) have norm 2 or 3, which no element of either field has
SQRT_M5, SQRT_10 = quadratic_field(-5), quadratic_field(10)
NONPRINCIPAL = {SQRT_M5: [(2, (1, 1)), (3, (1, 1)), (3, (-1, 1))],
                SQRT_10: [(2, (0, 1)), (3, (1, 1))]}


@st.composite
def pseudo_bases(draw, k, n):
    """A pseudo-basis of rank n over K: ideals O, the dual of O, non-principal
    ideals (c, b) where K has them, and their multiples by random elements."""
    small = st.fractions(min_value=-2, max_value=2, max_denominator=2)

    def element():
        return k.element([draw(small) for _ in range(k.degree)])

    ring = FractionalIdeal.whole_ring(k)
    ideals = [ring, ring.trace_dual()] + [
        FractionalIdeal(k, [k.from_rational(c), k.element(b)]) for c, b in NONPRINCIPAL.get(k, [])]
    pseudo = []
    for _ in range(n):
        ideal = draw(st.sampled_from(ideals))
        if draw(st.booleans()):
            x = element()
            assume(not x.is_zero())
            ideal = ideal.scaled(x)
        pseudo.append((ideal, tuple(element() for _ in range(n))))
    try:
        return KModule(k, pseudo)
    except ValueError:
        assume(False)


@st.composite
def module_pairs(draw):
    """Two unrelated modules of one rank over one field."""
    k = draw(st.sampled_from([SQRT_M5, SQRT_10, preset_field("Q_sqrt5"), CUBIC, QUARTIC]))
    n = draw(st.integers(1, 3))
    return draw(pseudo_bases(k, n)), draw(pseudo_bases(k, n))


def test_ideal_pairing_of_non_principal_ideals_is_the_trace_sum():
    k = SQRT_M5
    ideals = [FractionalIdeal(k, [k.from_rational(c), k.element(b)]) for c, b in NONPRINCIPAL[k]]
    assert_pairings_are_trace_sums(ideals + [a.trace_dual() for a in ideals])


@settings(max_examples=50, deadline=None)
@given(module_pairs())
def test_trace_dual_passes_and_fails_with_the_flat_pairing(pair):
    # the certificate on the vectors and the ideals agrees with the flat
    # nd x nd pairing of the Z-bases, on the true dual and on one whose
    # first ideal's dual is doubled
    ideal_dual = FractionalIdeal.trace_dual
    for m in pair:
        dual = m.trace_dual()
        assert is_unimodular(*flat_pairing(dual, m))
        target, two = m.pseudo[0][0], m.field.from_rational(2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FractionalIdeal, "trace_dual", lambda self: (
                ideal_dual(self).scaled(two) if self is target else ideal_dual(self)))
            with pytest.raises(ConditioningError, match="trace dual routes disagree"):
                m.trace_dual()
            wrong = KModule(m.field, [(a.trace_dual(), w)
                                      for (a, _), (_, w) in zip(m.pseudo, dual.pseudo)])
        assert not is_unimodular(*flat_pairing(wrong, m))


@settings(max_examples=25, deadline=None)
@given(module_pairs())
def test_read_off_dual_inverse_is_the_solve(pair):
    # W* W^t = I, so (W*)^-1 = W^t is read off W's numerators, not solved
    for m in pair:
        dual = m.trace_dual()
        assert vars(dual)["_inverse"] == KModule._inverse.func(dual)
        assert dual.trace_dual().equals(m)


@pytest.mark.parametrize("wrong", ["doubled", "rows swapped"])
def test_a_wrong_dual_vector_matrix_fails_the_trace_dual(wrong):
    # the dual's pseudo-vectors come from the module's solve; a wrong solve is
    # caught before the dual's inverse is read off
    k, d = CUBIC, CUBIC.degree
    one, theta = k.one(), k.theta()
    m = module_from_matrix(k, [[one + theta, theta * theta], [one, 3 * one]])
    y, q = m._inverse
    if wrong == "doubled":
        y = [[2 * v for v in row] for row in y]
    else:
        # with one ideal on every row, swapped rows span the dual module
        # again, so the flat pairing alone passes them and W*^t W = I does not
        assert is_unimodular(*flat_pairing(KModule(k, m.trace_dual().pseudo[::-1]), m))
        y = y[d:] + y[:d]
    vars(m)["_inverse"] = (y, q)
    with pytest.raises(ConditioningError, match="trace dual routes disagree"):
        m.trace_dual()


# -- the dual module on numerators ---------------------------------------------


def dual_spy(monkeypatch):
    """The duals `KModule.trace_dual` returns, and one entry per `FieldElement` built in it."""
    duals, built, running = [], [], []
    init, trace_dual = FieldElement.__init__, KModule.trace_dual

    def counted_init(self, *args):
        built.extend(running)
        init(self, *args)

    def recorded_dual(self):
        running.append(self)
        try:
            duals.append(trace_dual(self))
        finally:
            running.pop()
        return duals[-1]

    monkeypatch.setattr(FieldElement, "__init__", counted_init)
    monkeypatch.setattr(KModule, "trace_dual", recorded_dual)
    return duals, built


@pytest.mark.parametrize("name", ["Q_sqrt2", "Q_i", "x3-x-1", "x4+1"])
def test_the_dual_pseudo_basis_read_late_is_the_inverse_transpose(name, monkeypatch):
    # the dual is made of its ideals and numerators; its elements, built on the
    # first read of `pseudo`, are those of (W^-1)^t, coordinate for coordinate
    k = corpus_field(name)
    rng = random.Random(k.degree)
    ring = FractionalIdeal.whole_ring(k)
    _, built = dual_spy(monkeypatch)
    for n in (1, 2, 3):
        rows, inverse = random_invertible_rows(k, n, rng)
        module = KModule(k, [(ring, w) for w in rows])
        dual = module.trace_dual()
        assert built == [] and "pseudo" not in vars(dual)
        # the module's own reads, its embedded Z-basis and equality, leave it on numerators
        assert lattice_from_module(dual).basis.shape == (n * k.degree,) * 2 and dual.equals(dual)
        assert "pseudo" not in vars(dual)
        assert [a for a, _ in dual.pseudo] == [ring.trace_dual()] * n
        assert [[x.coords for x in w] for _, w in dual.pseudo] == \
            [[x.coords for x in col] for col in transpose(inverse)]
        assert all(type(c) is Fraction for _, w in dual.pseudo for x in w for c in x.coords)


SCENARIOS = [*PRESETS, *(pytest.param(str(path), id=path.stem) for path in
                         sorted((Path(__file__).parent / "scenarios").glob("*.ini")))]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_verify_duality_and_transference_build_no_element_of_the_dual(scenario, monkeypatch,
                                                                       capsys):
    duals, built = dual_spy(monkeypatch)
    assert main(["verify-duality", scenario, "--machine"]) == 0
    body = parse_scenario(load_scenario_text(scenario)).build()
    transference_check(body)
    assert len(duals) == 2 and built == []
    assert not any("pseudo" in vars(dual) for dual in duals)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_polar_biduality_is_decided_on_the_body_s_own_ideals(scenario, monkeypatch, capsys):
    # the dual ideals know their duals, so the bidual holds the body's ideals and
    # W's numerators, and equality is read off them without a unimodular ratio
    ratios = []
    ratio = omodules.is_unimodular_ratio
    monkeypatch.setattr(omodules, "is_unimodular_ratio",
                        lambda *args: ratios.append(args) or ratio(*args))
    body = parse_scenario(load_scenario_text(scenario)).build()
    bidual = adelic_polar(adelic_polar(body))
    module, own = bidual.finite_part, body.finite_part
    assert all(a is b for a, b in zip(module.ideals, own.ideals))
    assert module.int_vectors == own.int_vectors
    assert adelic_equal(bidual, body) and "pseudo" not in vars(module) and ratios == []
    assert main(["polar", scenario, "--machine"]) == 0
    assert "polar biduality=pass" in capsys.readouterr().out and ratios == []
