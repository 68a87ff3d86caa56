"""Embedded lattices: reduction, enumeration, minima, duals, covering radii."""

import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic import lattices
from adelic.exactla import RankTracker, mat_det, mat_mul, transpose
from adelic import (
    AdelicBody,
    Ball,
    Box,
    CrossPolytope,
    DimensionLimitError,
    Ellipsoid,
    EmbeddedLattice,
    EnumerationCapError,
    FieldElement,
    NumberField,
    PlaceBody,
    ProductBody,
    adelic_minima,
    adelic_polar,
    covering_radius_bounds,
    enumerate_below,
    lattice_equal,
    lattice_from_module,
    module_from_matrix,
    polar_lattice,
    preset_field,
    rational_field,
    standard_module,
    transference_check,
    uniform_ball_body,
)
from field_reference import (
    circumradii,
    classical_minima,
    covering_radius_full_window,
    enumerate_quadratic_recursive,
    fraction_gram_schmidt,
    kvectors,
    preimage_by_field_arithmetic,
    random_module,
)

F = Fraction

Q = rational_field()


def z_lattice(m: int) -> EmbeddedLattice:
    return lattice_from_module(standard_module(Q, m))


def q_body(m: int, shape) -> ProductBody:
    return ProductBody(Q, m, [PlaceBody("real", m, shape)])


def integer_lattice(rows) -> EmbeddedLattice:
    mat = [[Q.from_rational(x) for x in row] for row in rows]
    return lattice_from_module(module_from_matrix(Q, mat))


def brute_force_below(lat, body, t):
    """Independent oracle: exhaustive integer-coordinate box enumeration."""
    m = lat.dim
    circ = math.sqrt(sum(r * r for r in circumradii(body)))
    radius = int(math.ceil(
        t * circ * np.linalg.norm(np.linalg.inv(lat.basis), 2))) + 1
    found = []
    grids = np.meshgrid(*[np.arange(-radius, radius + 1)] * m, indexing="ij")
    coords = np.stack([g.ravel() for g in grids], axis=1)
    coords = coords[np.any(coords != 0, axis=1)]
    gauges = body.gauge_many(coords @ lat.basis)
    for c, g in zip(coords, gauges):
        if g <= t * (1 + 1e-12):
            first = next(x for x in c if x != 0)
            if first > 0:
                found.append((tuple(int(x) for x in c), float(g)))
    return sorted(found, key=lambda cg: (cg[1], cg[0]))


# -- reduction ---------------------------------------------------------------


def test_reduction_preserves_the_lattice():
    rng = np.random.default_rng(2)
    for _ in range(10):
        rows = rng.integers(-5, 6, size=(3, 3))
        while abs(np.linalg.det(rows)) < 0.5:
            rows = rng.integers(-5, 6, size=(3, 3))
        lat = integer_lattice(rows.tolist())
        red = lat.reduced()
        assert lattice_equal(red, lat)
        assert abs(np.linalg.det(red.basis)) == pytest.approx(
            abs(np.linalg.det(lat.basis)), rel=1e-9)


def test_reduction_shortens_a_skewed_basis():
    lat = integer_lattice([[1, 0], [1000, 1]])
    red = lat.reduced()
    assert np.max(np.abs(red.basis)) <= 2
    assert lattice_equal(red, lat)


def test_reduction_keeps_back_map_exact():
    k = preset_field("Q_sqrt2")
    one, zero = k.one(), k.zero()
    skew = k.element([F(7), F(5)])
    lat = lattice_from_module(module_from_matrix(k, [[one, skew], [zero, one]]))
    red = lat.reduced()
    m = red.dim
    assert red.rows[0] != lat.rows[0] and red.rows[1] == lat.rows[1]
    for i, row in enumerate(red.basis):
        vec = red.preimage_of([int(i == j) for j in range(m)])
        assert np.allclose(k.embed_vector(vec), row, atol=1e-9)


def skewed_module(name):
    if name == "Q_sqrt2":
        k = preset_field("Q_sqrt2")
        return module_from_matrix(k, [[k.one(), k.element([F(7), F(5)])], [k.zero(), k.one()]])
    k = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    one, theta = k.one(), k.theta()
    return module_from_matrix(k, [[one + theta, 3 * theta * theta - 4], [one, one + theta]])


@pytest.mark.parametrize("name", ["Q_sqrt2", "x3-x-1"])
def test_preimages_are_coordinate_products_without_field_multiplication(monkeypatch, name):
    # module coordinates times the module's Z-basis in field arithmetic is
    # the reference
    module = skewed_module(name)
    lat = lattice_from_module(module)
    red = lat.reduced()
    m = red.dim
    assert red.rows != lat.rows
    points = [[int(i == j) for j in range(m)] for i in range(m)]
    points += [[(3 * i * j) % 7 - 3 for j in range(m)] for i in range(1, 4)]
    expected = [preimage_by_field_arithmetic(module, red, c) for c in points]
    muls = []
    mul = FieldElement.__mul__

    def spy(self, other):
        muls.append(other)
        return mul(self, other)

    monkeypatch.setattr(FieldElement, "__mul__", spy)
    monkeypatch.setattr(FieldElement, "__rmul__", spy)
    assert [red.preimage_of(c) for c in points] == expected
    assert muls == []


@pytest.mark.parametrize("name", ["Q_sqrt2", "x3-x-1"])
def test_minima_preimages_read_the_module_numerators(monkeypatch, name):
    # a module lattice's exact rows are the module's integer Z-basis (N, s)
    module = skewed_module(name)
    body = AdelicBody(module, uniform_ball_body(module.field, 2, F(1)))
    rep = adelic_minima(body)
    assert body.lattice().rows is module.int_flat
    red = body.lattice().reduced()
    assert rep.witnesses == [preimage_by_field_arithmetic(module, red, p.coords)
                             for p in rep.points]


def test_reduced_basis_is_the_embedding_of_its_exact_rows(monkeypatch):
    # a reduction carries the exact rows u M alone, and the reduced basis is
    # their embedding bit for bit, on either side; a transference check embeds
    # each side's start and its reduced basis, and nothing else
    module = skewed_module("x3-x-1")
    k, lat = module.field, lattice_from_module(module)
    transforms = []
    lll = lattices._lll_transform
    monkeypatch.setattr(lattices, "_lll_transform",
                        lambda *args: transforms.append(lll(*args)) or transforms[-1])
    red = lat.reduced()
    [(u, _)] = transforms
    assert red.rows == (mat_mul(u, lat.rows[0]), lat.rows[1])
    body = AdelicBody(module, uniform_ball_body(k, 2, F(1)))
    pair = lattices.reduced_pair(body.lattice(), adelic_polar(body).lattice())
    assert [r.conjugated for r in pair] == [False, True]
    for r in (red,) + pair:
        assert r.basis.tobytes() == k.embed_rows(r.rows, r.conjugated).tobytes()
    calls = []
    embed = NumberField.embed_rows
    monkeypatch.setattr(NumberField, "embed_rows",
                        lambda self, *args: calls.append(args) or embed(self, *args))
    transference_check(body)
    assert len(calls) == 4


@st.composite
def lll_bases(draw):
    """Nonsingular integer bases of dimension 2-16: L D, L unit lower and D upper triangular."""
    m = draw(st.integers(2, 16))
    skew = draw(st.sampled_from([1, 10, 1000]))

    def entry(lo, hi):
        return draw(st.integers(lo, hi))

    lower = [[1 if i == j else skew * entry(-3, 3) if j < i else 0 for j in range(m)]
             for i in range(m)]
    upper = [[entry(1, 4) if i == j else entry(-5, 5) if j > i else 0 for j in range(m)]
             for i in range(m)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)]


@settings(max_examples=30, deadline=None)
@given(lll_bases())
@example([[1, 0], [1000, 1]])
# first coefficient about -2^33: without a fresh row after it, mu_20 is off by more than 1/2
@example([[1, 2, -2], [-8589934589, -17179869174, 17179869179], [4294967299, 42949672974, 0]])
def test_lll_transform_is_lll_reduced_in_exact_arithmetic(rows):
    # U is unimodular, V is U^-T, and U B is size-reduced and Lovasz at delta = 0.99,
    # in Fractions
    u, v = lattices._lll_transform(np.array(rows, dtype=float), 0.99)
    assert abs(mat_det(u)) == 1
    assert mat_mul(u, transpose(v)) == [[int(i == j) for j in range(len(u))]
                                        for i in range(len(u))]
    mu, norms = fraction_gram_schmidt(mat_mul(u, rows))
    assert all(abs(x) <= F(1, 2) for row in mu for x in row)
    assert all(norms[k] >= (F(99, 100) - mu[k][k - 1] ** 2) * norms[k - 1]
               for k in range(1, len(rows)))


def test_back_map_validation():
    # a lattice given by its floats alone has no exact rows and no preimages,
    # a change of basis is the float product, and the basis must be square
    lat = EmbeddedLattice(Q, np.diag([1.0, 2.0]))
    assert lat.rows is None and lat.preimage_of((1, 0)) is None
    moved = lat.transformed([[1, 1], [0, 1]])
    assert moved.rows is None and moved.basis.tolist() == [[1.0, 2.0], [0.0, 2.0]]
    with pytest.raises(ValueError, match="square and full rank"):
        EmbeddedLattice(preset_field("Q_i"), np.eye(4)[:2])


def test_lattice_takes_the_twisted_form_of_its_dimension():
    assert EmbeddedLattice(preset_field("Q_i"), np.eye(4)).form.tolist() == [2.0] * 4
    with pytest.raises(ValueError, match="multiple of the field degree"):
        EmbeddedLattice(preset_field("Q_sqrt2"), np.eye(3))


# -- enumeration -------------------------------------------------------------


def test_enumerate_unit_ball_on_z2():
    lat = z_lattice(2)
    pts = enumerate_below(lat, q_body(2, Ball(F(1))), 1.0)
    assert [p.coords for p in pts] == [(0, 1), (1, 0)]
    assert all(p.gauge == pytest.approx(1) for p in pts)


def test_enumerate_respects_threshold_and_pairs():
    lat = z_lattice(2)
    pts = enumerate_below(lat, q_body(2, Ball(F(1))), 1.5)
    # norms 1 and sqrt(2) both qualify; one representative per +- pair
    assert len(pts) == 4
    assert {p.coords for p in pts} == {(0, 1), (1, 0), (1, 1), (1, -1)}
    for p in pts:
        assert next(x for x in p.coords if x != 0) > 0


def test_enumerate_empty_below_minimum():
    lat = z_lattice(2)
    assert enumerate_below(lat, q_body(2, Ball(F(1))), 0.5) == []
    assert enumerate_below(lat, q_body(2, Ball(F(1))), 0.0) == []


def test_enumerate_matches_brute_force_oracle():
    rng = np.random.default_rng(4)
    shapes = [Ball(F(1)), Box((F(1), F(1, 2))), CrossPolytope((F(1), F(2)))]
    for trial in range(12):
        rows = rng.integers(-3, 4, size=(2, 2))
        while abs(np.linalg.det(rows)) < 0.5:
            rows = rng.integers(-3, 4, size=(2, 2))
        lat = integer_lattice(rows.tolist()).reduced()
        body = q_body(2, shapes[trial % len(shapes)])
        t = 1.3 * min(body.gauge(lat.basis[i]) for i in range(2))
        got = [(p.coords, p.gauge) for p in enumerate_below(lat, body, t)]
        want = brute_force_below(lat, body, t)
        assert [c for c, _ in got] == [c for c, _ in want]
        for (_, g1), (_, g2) in zip(got, want):
            assert g1 == pytest.approx(g2, abs=1e-9)


def test_enumerate_below_enforces_its_cap():
    lat = z_lattice(3)
    with pytest.raises(EnumerationCapError):
        enumerate_below(lat, q_body(3, Ball(F(1))), 6.0, cap=10)


def first_positive(coords):
    return {c for c in coords if next(x for x in c if x != 0) > 0}


@st.composite
def triangular_forms(draw):
    """Upper triangular R of dimension 1-10 and a bound holding a few dozen points."""
    m = draw(st.integers(1, 10))
    diag = draw(st.lists(st.floats(0.25, 4), min_size=m, max_size=m))
    off = draw(st.lists(st.floats(-3, 3), min_size=m * m, max_size=m * m))
    r = np.array([[diag[i] if i == j else (off[i * m + j] if j > i else 0.0)
                   for j in range(m)] for i in range(m)])
    scale = draw(st.floats(0.1, 2.5))
    return r, scale * float(np.prod(diag)) ** (2 / m)


@settings(max_examples=150, deadline=None)
@given(triangular_forms())
@example((np.eye(3), 2.0))
@example((np.array([[1.0, 0.5], [0.0, 2.0]]), 4.25))
# y ** 2 (libm pow, as the recursion's scalar term) fits under this bound
# and the product y * y does not: the terms must be the same floats
@example((np.array([[float.fromhex("0x1.19d7382ea8ee8p+1")]]),
          float.fromhex("0x1.364a2e45d9496p+2")))
def test_breadth_first_enumeration_matches_the_recursion(case):
    r, bound = case
    got = [tuple(c) for c in lattices._enumerate_quadratic(r, bound, 10 ** 6).tolist()]
    assert len(got) == len(set(got))
    assert set(got) == first_positive(enumerate_quadratic_recursive(r, bound, 10 ** 6))


def test_capped_enumeration_never_returns_a_partial_list():
    r = np.linalg.cholesky(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])).T
    full = lattices._enumerate_quadratic(r, 9.0, 10 ** 6)
    outcomes = set()
    for cap in range(1, 400):
        try:
            got = lattices._enumerate_quadratic(r, 9.0, cap)
        except EnumerationCapError:
            outcomes.add("raised")
            continue
        outcomes.add("complete")
        assert got.tolist() == full.tolist()
    assert outcomes == {"raised", "complete"}


def box_search_around(r, target, bound):
    """Every integer c with |R (c - target)|^2 <= bound, from a box around the target."""
    m = r.shape[0]
    # c - target = R^-1 y with |y| <= sqrt(bound) bounds each coordinate
    reach = np.ceil(math.sqrt(bound) * np.linalg.norm(np.linalg.inv(r), axis=1)).astype(int) + 1
    axes = [np.arange(math.floor(f) - h, math.ceil(f) + h + 1) for f, h in zip(target, reach)]
    box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    return box, np.sum(((box - target) @ r.T) ** 2, axis=1)


@pytest.mark.parametrize("seed", range(12))
def test_centred_enumeration_matches_a_box_search(seed):
    # random triangular R, targets and per-target bounds; a point within
    # 1e-9 of its bound may fall either way
    rng = np.random.default_rng(seed)
    m = 1 + seed % 4
    r = np.triu(rng.uniform(-2, 2, size=(m, m)))
    r[np.diag_indices(m)] = rng.uniform(0.3, 2.5, size=m)
    targets = rng.uniform(-3, 3, size=(5, m))
    bounds = rng.uniform(0.05, 6, size=5)
    coords, near = lattices._enumerate_quadratic(r, bounds, 10 ** 6, targets)
    assert coords.dtype.kind == "i" and near.dtype.kind == "i"
    for t, (target, bound) in enumerate(zip(targets, bounds)):
        got = [tuple(c) for c in coords[near == t].tolist()]
        assert len(got) == len(set(got))
        box, q = box_search_around(r, target, bound)
        inner = {tuple(c) for c in box[q <= bound - 1e-9].tolist()}
        outer = {tuple(c) for c in box[q <= bound + 1e-9].tolist()}
        assert inner <= set(got) <= outer


def test_capped_centred_enumeration_never_returns_a_partial_list():
    r = np.linalg.cholesky(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])).T
    targets = np.array([[0.5, 0.5, 0.5], [0.25, -0.75, 2.0]])
    bounds = np.array([9.0, 4.0])
    full = lattices._enumerate_quadratic(r, bounds, 10 ** 6, targets)
    outcomes = set()
    for cap in range(1, 400, 3):
        try:
            got = lattices._enumerate_quadratic(r, bounds, cap, targets)
        except EnumerationCapError:
            outcomes.add("raised")
            continue
        outcomes.add("complete")
        assert [x.tolist() for x in got] == [x.tolist() for x in full]
    assert outcomes == {"raised", "complete"}


def frontier_forms(search):
    """search() with every level on numpy columns, then with every level on Python floats.

    A cap error is returned as its message.
    """
    out = []
    for rows in (0, 10 ** 9):
        with patch.object(lattices, "NARROW_ROWS", rows):
            try:
                out.append(search())
            except EnumerationCapError as exc:
                out.append(str(exc))
    return out


def identical(a, b) -> bool:
    """Equal messages, or arrays (or tuples of arrays) equal in dtype, shape and order."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(identical, a, b))
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


# the point (-4, -1, -1, 1) lies within 1e-12 of this bound when the centre
# sums its three terms in increasing j, and outside it in decreasing j
CENTRE_ORDER_FORM = np.eye(4)
CENTRE_ORDER_FORM[0] = [float.fromhex(x) for x in (
    "0x1.4fbbe59826703p+0", "-0x1.75e31148c0e11p+1", "0x1.032d1f0d0bdaap+1",
    "-0x1.71a1da163fd57p+0")]


@settings(max_examples=150, deadline=None)
@given(triangular_forms())
@example((CENTRE_ORDER_FORM, float.fromhex("0x1.2485604c19cc6p+5")))
def test_both_frontier_forms_return_identical_arrays(case):
    r, bound = case
    numpy_form, python_form = frontier_forms(
        lambda: lattices._enumerate_quadratic(r, bound, 10 ** 6))
    assert identical(numpy_form, python_form)
    assert identical(lattices._enumerate_quadratic(r, bound, 10 ** 6), numpy_form)


@pytest.mark.parametrize("seed", range(8))
def test_both_frontier_forms_return_identical_centred_arrays(seed):
    # 5 targets start on Python floats by default and 20 on numpy columns
    rng = np.random.default_rng(seed)
    m = 1 + seed % 4
    r = np.triu(rng.uniform(-2, 2, size=(m, m)))
    r[np.diag_indices(m)] = rng.uniform(0.3, 2.5, size=m)
    for k in (5, 20):
        targets = rng.uniform(-3, 3, size=(k, m))
        bounds = rng.uniform(0.05, 6, size=k)
        numpy_form, python_form = frontier_forms(
            lambda: lattices._enumerate_quadratic(r, bounds, 10 ** 6, targets))
        assert identical(numpy_form, python_form)
        assert identical(lattices._enumerate_quadratic(r, bounds, 10 ** 6, targets), numpy_form)


def test_both_frontier_forms_stop_at_the_same_caps():
    r = np.linalg.cholesky(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])).T
    targets = np.array([[0.5, 0.5, 0.5], [0.25, -0.75, 2.0]])
    bounds = np.array([9.0, 4.0])
    outcomes = set()
    for cap in range(1, 401):
        for search in (lambda: lattices._enumerate_quadratic(r, 9.0, cap),
                       lambda: lattices._enumerate_quadratic(r, bounds, cap, targets)):
            numpy_form, python_form = frontier_forms(search)
            assert identical(numpy_form, python_form)
            outcomes.add(isinstance(numpy_form, str))
    assert outcomes == {True, False}


@pytest.mark.parametrize("bound", [math.inf, math.nan])
def test_both_frontier_forms_refuse_a_bound_that_is_not_finite(bound):
    # a range that is not finite counts past any cap on numpy columns; on
    # Python floats it cannot be rounded, so that level is left to numpy
    r = np.array([[1.0, 0.5], [0.0, 2.0]])
    for search in (lambda: lattices._enumerate_quadratic(r, bound, 10 ** 6),
                   lambda: lattices._enumerate_quadratic(
                       r, np.array([1.0, bound]), 10 ** 6, np.zeros((2, 2)))):
        numpy_form, python_form = frontier_forms(search)
        assert numpy_form == python_form
        assert numpy_form.startswith("enumeration would visit more than 1000000 nodes")


@pytest.mark.parametrize("m", [2, 4, 9, 16])
def test_point_vectors_are_per_row_products(m):
    rng = np.random.default_rng(m)
    basis = rng.standard_normal((m, m)) * 7
    coords = rng.integers(-40, 41, size=(500, m)).astype(float)
    stacked = (coords[:, None, :] @ basis)[:, 0, :]
    per_row = np.array([c @ basis for c in coords])
    assert stacked.tobytes() == per_row.tobytes()
    for i in (0, 123, 499):
        alone = (coords[i:i + 1, None, :] @ basis)[:, 0, :]
        assert alone.tobytes() == stacked[i:i + 1].tobytes()


def test_enumerated_points_are_their_coordinates_times_the_basis():
    lat = integer_lattice([[3, 1, 0, 2], [1, 4, 1, 0], [0, 1, 5, 1], [2, 0, 1, 6]]).reduced()
    body = q_body(4, Ball(F(1)))
    pts = enumerate_below(lat, body, 9.0)
    assert len(pts) > 50
    for p in pts:
        # each gauge is measured on the floats of its coordinates times the basis
        assert p.gauge == body.gauge(np.asarray(p.coords, dtype=float) @ lat.basis)
        assert all(type(x) is int for x in p.coords)


def test_enumerate_keeps_preimages():
    k = preset_field("Q_sqrt2")
    lat = lattice_from_module(standard_module(k, 1)).reduced()
    body = uniform_ball_body(k, 1, F(3, 2))
    pts = enumerate_below(lat, body, 1.01)
    assert pts, "the unit of the ring should appear"
    for p in pts:
        emb = k.embed_vector(lat.preimage_of(p.coords))
        assert np.allclose(emb, np.asarray(p.coords, dtype=float) @ lat.basis, atol=1e-9)


def test_points_by_gauge_starts_below_the_first_minimum(monkeypatch):
    # generators (2, 0) and (1, 2) have gauges 200 and 100 in the thin box;
    # the first minimum is (0, 4) at 0.04
    lat = integer_lattice([[2, 1], [0, 2]]).reduced()
    body = q_body(2, Box((F(1, 100), F(100))))
    assert min(body.gauge(row) for row in lat.basis) >= 100
    levels = []
    real = lattices.enumerate_below

    def spy(lat, body, t, cap, factor):
        levels.append(t)
        return real(lat, body, t, cap, factor)

    monkeypatch.setattr(lattices, "enumerate_below", spy)
    first = next(lattices.points_by_gauge(lat, body, lat.dim))
    assert np.allclose(np.abs(np.asarray(first.coords, dtype=float) @ lat.basis), [0, 4])
    assert first.gauge == pytest.approx(0.04)
    assert levels[0] <= first.gauge <= levels[-1] < 2 * first.gauge


def test_points_by_gauge_yields_each_pair_once_in_order(monkeypatch):
    # in the thin box the basis gauges are 10 and 20, and the schedule
    # halves from the larger twice before it passes below lambda_2's lower bound
    lat = integer_lattice([[3, 1], [1, 2]]).reduced()
    body = q_body(2, Box((F(1, 10), F(1))))
    levels = []
    real = lattices.enumerate_below

    def spy(lat, body, t, cap, factor):
        levels.append(t)
        return real(lat, body, t, cap, factor)

    monkeypatch.setattr(lattices, "enumerate_below", spy)
    got = list(lattices.points_by_gauge(lat, body, lat.dim))
    assert levels == [5.0, 10.0, 20.0]
    assert levels[-1] == max(body.gauge(row) for row in lat.basis)
    whole = real(lat, body, levels[-1])
    assert [(p.coords, p.gauge) for p in got] == [(p.coords, p.gauge) for p in whole]
    assert [p.sort_key() for p in got] == sorted(p.sort_key() for p in got)
    pairs = {min(p.coords, tuple(-c for c in p.coords)) for p in got}
    assert len(pairs) == len(got)
    # every round contributed points of its own
    for lo, hi in zip([0.0] + levels, levels):
        assert any(lo * (1 + 1e-12) < p.gauge <= hi * (1 + 1e-12) for p in got)


@pytest.mark.parametrize("m", [3, 6])
@pytest.mark.parametrize("shape", ["ball", "box"])
def test_points_by_gauge_levels_run_between_the_bounds_on_lambda_k(monkeypatch, m, shape):
    # the levels step by g from just above the lower bound on lambda_k
    # to the k-th basis gauge, and lambda_k is found below g times its value
    lat = lattice_from_module(random_module(Q, m, seed=m)).reduced()
    halfwidths = tuple(F(i + 1, 2) for i in range(m))
    body = q_body(m, Ball(F(1)) if shape == "ball" else Box(halfwidths))
    g = min(2.0, 2.0 ** (4.0 / m))
    r = lattices._bounding_factor(lat, body)
    levels = []
    real = lattices.enumerate_below

    def spy(lat, body, t, cap, factor):
        levels.append(t)
        return real(lat, body, t, cap, factor)

    monkeypatch.setattr(lattices, "enumerate_below", spy)
    for k in (2, m):
        levels.clear()
        points = list(lattices.points_by_gauge(lat, body, k))
        lower = float(np.min(np.diag(r)[k - 1:])) / math.sqrt(body.enumeration_quadratic_bound(1.0))
        top = sorted(body.gauge(row) for row in lat.basis)[k - 1]
        assert levels == [top / g ** j for j in range(len(levels) - 1, -1, -1)]
        assert levels[-1] == top
        assert lower <= levels[0] < g * lower
        tracker = RankTracker(m)
        lam = [p.gauge for p in points if tracker.try_add(p.coords)][k - 1]
        assert lower <= lam <= top
        found = next(t for t in levels if lam <= t * (1 + 1e-12))
        assert found < g * lam


@pytest.mark.parametrize("n", [24, 32])
def test_minima_of_random_z_lattices_complete_at_the_default_cap(n):
    body = AdelicBody(random_module(Q, n), uniform_ball_body(Q, n, F(1)))
    rep = adelic_minima(body)
    assert len(rep.minima) == n and rep.minima == sorted(rep.minima)


# -- classical minima --------------------------------------------------------


def test_minima_of_z_with_unit_ball():
    for m in (1, 2, 3):
        pts = classical_minima(z_lattice(m), q_body(m, Ball(F(1))))
        assert [p.gauge for p in pts] == pytest.approx([1.0] * m)


def test_minima_of_anisotropic_box():
    pts = classical_minima(z_lattice(2), q_body(2, Box((F(1, 2), F(1)))))
    assert [p.gauge for p in pts] == pytest.approx([1.0, 2.0])
    assert pts[0].coords == (0, 1)
    # the second witness only needs the right gauge and independence
    assert pts[1].coords[0] != 0


def test_minima_witnesses_are_independent():
    lat = integer_lattice([[2, 1], [1, 1]])
    pts = classical_minima(lat, q_body(2, Ball(F(1))))
    c = np.array([p.coords for p in pts], dtype=float)
    assert abs(np.linalg.det(c)) >= 0.5


def test_minima_scale_with_the_lattice():
    lat = z_lattice(2)
    doubled = integer_lattice([[2, 0], [0, 2]])
    body = q_body(2, Ball(F(1)))
    lam = [p.gauge for p in classical_minima(lat, body)]
    lam2 = [p.gauge for p in classical_minima(doubled, body)]
    assert lam2 == pytest.approx([2 * x for x in lam])


def test_minima_scale_with_the_body():
    lat = z_lattice(2)
    lam = [p.gauge for p in classical_minima(lat, q_body(2, Ball(F(1))))]
    lam_half = [p.gauge for p in classical_minima(lat, q_body(2, Ball(F(1, 2))))]
    assert lam_half == pytest.approx([2 * x for x in lam])


def test_minima_count_capped_by_rank():
    with pytest.raises(ValueError):
        classical_minima(z_lattice(2), q_body(2, Ball(F(1))), count=3)


# -- polar lattices ----------------------------------------------------------


def test_z_lattice_is_self_dual():
    lat = z_lattice(2)
    assert lattice_equal(polar_lattice(lat), lat)


def test_polar_of_diagonal_lattice():
    lat = integer_lattice([[2, 0], [0, 1]])
    dual = polar_lattice(lat)
    expected = EmbeddedLattice(Q, np.diag([0.5, 1.0]))
    assert lattice_equal(dual, expected)


def test_polar_involution():
    rng = np.random.default_rng(8)
    for _ in range(5):
        rows = rng.integers(-4, 5, size=(3, 3))
        while abs(np.linalg.det(rows)) < 0.5:
            rows = rng.integers(-4, 5, size=(3, 3))
        lat = integer_lattice(rows.tolist())
        assert lattice_equal(polar_lattice(polar_lattice(lat)), lat)


def test_polar_pairings_are_integral():
    k = preset_field("Q_sqrt5")
    lat = lattice_from_module(standard_module(k, 1))
    dual = polar_lattice(lat)
    pairings = (lat.basis * lat.form) @ dual.basis.T
    assert np.allclose(pairings, np.rint(pairings), atol=1e-9)


def test_polar_lattice_matches_mirror_embedded_dual_module():
    for name in ("Q", "Q_sqrt2", "Q_sqrt5", "Q_i", "Q_sqrt-3"):
        k = preset_field(name)
        mod = standard_module(k, 1)
        lat = lattice_from_module(mod)
        dual = polar_lattice(lat)
        assert dual.conjugated != lat.conjugated
        assert lattice_equal(dual, lattice_from_module(mod.trace_dual(), dual.conjugated))
    # a wrong module is told apart
    k = preset_field("Q_sqrt2")
    mod = standard_module(k, 1)
    lat = lattice_from_module(mod)
    assert not lattice_equal(polar_lattice(lat), lattice_from_module(mod, True))


def test_lattice_equal_discriminates():
    assert not lattice_equal(z_lattice(2), integer_lattice([[2, 0], [0, 2]]))
    assert lattice_equal(z_lattice(2), integer_lattice([[1, 1], [0, 1]]))
    assert not lattice_equal(z_lattice(2), z_lattice(3))


# -- covering radius ---------------------------------------------------------


def test_covering_radius_of_z1():
    lat = z_lattice(1)
    lo, hi = covering_radius_bounds(lat, q_body(1, Ball(F(1))), resolution=64)
    assert lo <= 0.5 <= hi
    assert hi - lo < 0.05


def test_covering_radius_of_z2_brackets_the_deep_hole():
    lat = z_lattice(2)
    target = math.sqrt(2) / 2
    lo, hi = covering_radius_bounds(lat, q_body(2, Ball(F(1))), resolution=32)
    assert lo <= target <= hi


def test_covering_brackets_nest_with_resolution():
    lat = z_lattice(2)
    body = q_body(2, Ball(F(1)))
    lo1, hi1 = covering_radius_bounds(lat, body, resolution=16)
    lo2, hi2 = covering_radius_bounds(lat, body, resolution=32)
    assert lo1 <= lo2 <= hi2 <= hi1


def test_covering_radius_guards():
    with pytest.raises(DimensionLimitError):
        covering_radius_bounds(z_lattice(5), q_body(5, Ball(F(1))))
    with pytest.raises(ValueError):
        covering_radius_bounds(z_lattice(2), q_body(2, Ball(F(1))), resolution=1)
    with pytest.raises(EnumerationCapError):
        covering_radius_bounds(z_lattice(4), q_body(4, Ball(F(1))), resolution=64)


def test_covering_radius_scaling():
    lat = z_lattice(2)
    lo1, hi1 = covering_radius_bounds(lat, q_body(2, Ball(F(1))), resolution=32)
    lo2, hi2 = covering_radius_bounds(lat, q_body(2, Ball(F(2))), resolution=32)
    assert lo2 == pytest.approx(lo1 / 2, rel=1e-9)
    assert hi2 == pytest.approx(hi1 / 2, rel=1e-9)


def sqrt2_rank2_case():
    k = preset_field("Q_sqrt2")
    one, theta = k.one(), k.theta()
    mod = module_from_matrix(k, [[one + theta, theta], [one, k.from_rational(3)]])
    return lattice_from_module(mod), uniform_ball_body(k, 2, F(1))


def covering_cases():
    cubic = NumberField([-1, -1, 0, 1], [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    skew = integer_lattice([[2, 1], [1, 3]])
    lat, body = sqrt2_rank2_case()
    return {
        "z2-ball": (z_lattice(2), q_body(2, Ball(F(1))), 16),
        "z2-skewed-box": (z_lattice(2), q_body(2, Box((F(1), F(3, 4)))), 16),
        "sqrt2-rank2-r4": (lat, body, 4),
        "cubic-rank1-r8": (lattice_from_module(standard_module(cubic, 1)),
                           uniform_ball_body(cubic, 1, F(1)), 8),
        "cross-polytope": (skew, q_body(2, Box((F(1), F(3, 4)))).polar(), 16),
        "ellipsoid": (skew, q_body(2, Ellipsoid(((F(2), F(1)), (F(1), F(3))))), 16),
    }


@pytest.mark.parametrize("name", list(covering_cases()))
def test_pruned_covering_search_matches_the_full_window(name):
    lat, body, k = covering_cases()[name]
    assert covering_radius_bounds(lat, body, resolution=k) == \
        covering_radius_full_window(lat, body, k)


def test_pruned_covering_search_measures_a_tenth_of_the_window(monkeypatch):
    # Q(sqrt 2), rank 2, resolution 8: same bracket from under a tenth of the rows
    lat, body = sqrt2_rank2_case()
    rows = []
    gauge_many = ProductBody.gauge_many
    monkeypatch.setattr(ProductBody, "gauge_many",
                        lambda self, pts: rows.append(len(pts)) or gauge_many(self, pts))
    pruned = covering_radius_bounds(lat, body, resolution=8)
    pruned_rows = sum(rows)
    rows.clear()
    full = covering_radius_full_window(lat, body, 8)
    # the reference measures 8^4 corner gauges, then 8^4 * (2w+2)^4 window rows
    window_rows = sum(rows) - 8 ** 4
    assert pruned == full
    assert 0 < pruned_rows < window_rows / 10


def test_centred_covering_search_measures_few_rows_beyond_the_corners(monkeypatch):
    # Q(sqrt 2), rank 2, resolution 8: the 8^4 corner gauges, then a few
    # lattice points around each of the few grid points measured
    lat, body = sqrt2_rank2_case()
    rows = []
    gauge_many = ProductBody.gauge_many
    monkeypatch.setattr(ProductBody, "gauge_many",
                        lambda self, pts: rows.append(len(pts)) or gauge_many(self, pts))
    bracket = covering_radius_bounds(lat, body, resolution=8)
    assert rows[0] == 8 ** 4 and 0 < sum(rows[1:]) < 2000
    assert bracket == covering_radius_full_window(lat, body, 8)


def test_covering_search_window_cap():
    # a 1 x 50 box over Z^2: the first batch of 16 grid points visits
    # about 170 nodes for each point at nearest-plane bound 0.5
    body = q_body(2, Box((F(1), F(50))))
    with pytest.raises(EnumerationCapError, match=r"covering search, grid batch 1 "
                       r"\(16 points, nearest-plane bound <= 0.5\)"):
        covering_radius_bounds(z_lattice(2), body, resolution=8, cap=1000)
    assert covering_radius_bounds(z_lattice(2), body, resolution=8) == (0.5, 0.625)


def count_covering_targets(monkeypatch) -> list[int]:
    """Per centred search, the number of grid points it measures."""
    counts = []
    real = lattices._enumerate_quadratic

    def spy(r, bound, cap, targets=None):
        if targets is not None:
            counts.append(len(targets))
        return real(r, bound, cap, targets)

    monkeypatch.setattr(lattices, "_enumerate_quadratic", spy)
    return counts


def test_nearest_plane_bounds_measure_few_grid_points(monkeypatch):
    # the polar of the box (1, 10) over the Z-lattice of [[-3, 2], [3, -1]] at
    # resolution 64: with the gauge to the rounded cell corner as each grid
    # point's bound the search measured 2032 of the 4096 grid points; the
    # nearest-plane point leaves 101, and only those are sorted; the size of
    # the last batch follows the last bits of the reduced basis
    mat = [[Q.from_rational(x) for x in row] for row in [[-3, 2], [3, -1]]]
    star = adelic_polar(AdelicBody(module_from_matrix(Q, mat), q_body(2, Box((F(1), F(10))))))
    lat, body = star.lattice(), star.infinite_part
    counts = count_covering_targets(monkeypatch)
    argsorted = []
    real_argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, **kw: argsorted.append(len(a))
                        or real_argsort(a, **kw))
    bracket = covering_radius_bounds(lat, body, resolution=64)
    assert counts == [16, 32, 58]
    assert max(argsorted) < 101
    assert bracket == covering_radius_full_window(lat, body, 64)


SWEEP_FIELDS = {"Q": ([0, 1], 4), "Q_sqrt2": ([-2, 0, 1], 2), "Q_i": ([1, 0, 1], 2),
                "x3-x-1": ([-1, -1, 0, 1], 1), "x4+1": ([1, 0, 0, 0, 1], 1)}


@pytest.mark.parametrize("seed", range(30))
def test_covering_bracket_equals_the_full_window_on_random_bodies(seed):
    # nd 1 to 4, balls and boxes (balls at complex places), and the polar of
    # each; module entries have coordinates in [-2, 2] and the grid is coarser
    # as nd grows, so the reference's offset window stays cheap
    rng = np.random.default_rng(seed)
    name = list(SWEEP_FIELDS)[seed % len(SWEEP_FIELDS)]
    poly, max_rank = SWEEP_FIELDS[name]
    d = len(poly) - 1
    k = NumberField(poly, [[int(i == j) for j in range(d)] for i in range(d)])
    n = int(rng.integers(1, max_rank + 1))
    while True:
        a = [[k.element([int(x) for x in rng.integers(-2, 3, size=d)]) for _ in range(n)]
             for _ in range(n)]
        try:
            module = module_from_matrix(k, a)
            break
        except ValueError:
            continue
    places = []
    for (kind, _), dim in zip(k.places, k.place_dims(n)):
        if kind == "real" and seed % 2:
            shape = Box(tuple(F(int(h), 2) for h in rng.integers(2, 9, size=dim)))
        else:
            shape = Ball(F(int(rng.integers(1, 7)), 2))
        places.append(PlaceBody(kind, dim, shape))
    body = AdelicBody(module, ProductBody(k, n, places))
    resolution = {1: 32, 2: 16, 3: 5, 4: 3}[n * d]
    for side in (body, adelic_polar(body)):
        lat, pb = side.lattice(), side.infinite_part
        assert covering_radius_bounds(lat, pb, resolution) == \
            covering_radius_full_window(lat, pb, resolution)


@pytest.mark.parametrize("name,conjugated", [("Q_sqrt2", False), ("Q_i", True),
                                             ("Q_sqrt-3", False), ("x3-x-1", True)])
def test_module_lattice_embeds_the_integer_basis_as_the_k_vectors(name, conjugated):
    # the basis from the coordinate floats N / s is the embedding of the
    # Z-basis K-vectors bit for bit
    if name == "x3-x-1":
        module = skewed_module(name)
    else:
        k = preset_field(name)
        module = module_from_matrix(k, [[k.one(), k.theta()],
                                        [k.from_rational(F(1, 3)), k.from_rational(5)]])
    lat = lattice_from_module(module, conjugated)
    want = np.array([module.field.embed_vector(z, conjugated)
                     for z in kvectors(module.field, module.int_flat)])
    assert lat.basis.tobytes() == want.tobytes()
