"""Embedded lattices: reduction, enumeration, minima, duals, covering radii."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic import lattices
from adelic import (
    AdelicBody,
    Ball,
    Box,
    CrossPolytope,
    ComputeOptions,
    DimensionLimitError,
    Ellipsoid,
    EmbeddedLattice,
    EnumerationCapError,
    FieldElement,
    NumberField,
    PlaceBody,
    ProductBody,
    adelic_minima,
    covering_radius_bounds,
    enumerate_below,
    lattice_equal,
    lattice_from_module,
    module_from_matrix,
    polar_lattice,
    preset_field,
    rational_field,
    standard_module,
    uniform_ball_body,
)
from field_reference import (
    classical_minima,
    covering_radius_full_window,
    enumerate_quadratic_recursive,
    kvectors,
    lll_transform_full_gram_schmidt,
    preimage_by_field_arithmetic,
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
    circ = math.sqrt(sum(r * r for r in body.circumradii()))
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
    assert red.transform != [[int(i == j) for j in range(m)] for i in range(m)]
    assert red.back_flat is lat.back_flat
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
    # the old route, module coordinates times the back map in field
    # arithmetic, is the reference
    red = lattice_from_module(skewed_module(name)).reduced()
    m = red.dim
    assert red.transform != [[int(i == j) for j in range(m)] for i in range(m)]
    points = [[int(i == j) for j in range(m)] for i in range(m)]
    points += [[(3 * i * j) % 7 - 3 for j in range(m)] for i in range(1, 4)]
    expected = [preimage_by_field_arithmetic(red, c) for c in points]
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
    # a module lattice's back map is the module's integer Z-basis (N, s)
    module = skewed_module(name)
    body = AdelicBody(module, uniform_ball_body(module.field, 2, F(1)))
    rep = adelic_minima(body)
    red = body.lattice().reduced()
    assert red.back_flat is module.int_flat
    assert rep.witnesses == [preimage_by_field_arithmetic(red, p.coords) for p in rep.points]


def test_reduction_reuses_the_back_map_embedding(monkeypatch):
    lat = lattice_from_module(skewed_module("x3-x-1"))
    calls = []
    embed = NumberField.embed_flat
    monkeypatch.setattr(NumberField, "embed_flat",
                        lambda self, *args: calls.append(args) or embed(self, *args))
    red = lat.reduced()
    assert calls == []
    assert red.back_embedding is lat.back_embedding
    # each entry is the sum of u[i][k] * basis[k][j] over increasing k, bit for bit
    u = red.transform
    m = lat.dim
    want = np.array([[sum(u[i][k] * lat.basis[k][j] for k in range(m)) for j in range(m)]
                     for i in range(m)])
    assert red.basis.tobytes() == want.tobytes()


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
def test_lll_transform_matches_full_gram_schmidt_reference(rows):
    b = np.array(rows, dtype=float)
    assert lattices._lll_transform(b, 0.99) == lll_transform_full_gram_schmidt(b, 0.99)


def test_back_map_validation():
    with pytest.raises(ValueError, match="back map"):
        EmbeddedLattice(Q, 2, np.eye(2), np.ones(2),
                        back_flat=([[1, 0], [1, 1]], 1))


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


def test_enumeration_cap_is_enforced():
    lat = z_lattice(3)
    tiny = ComputeOptions(enumeration_cap=10)
    with pytest.raises(EnumerationCapError):
        enumerate_below(lat, q_body(3, Ball(F(1))), 6.0, tiny)


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


def test_enumeration_cap_never_returns_a_partial_list():
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


def test_centred_enumeration_cap_never_returns_a_partial_list():
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
    pts = enumerate_below(lat, q_body(4, Ball(F(1))), 9.0)
    assert len(pts) > 50
    for p in pts:
        assert p.point.tobytes() == (np.asarray(p.coords, dtype=float) @ lat.basis).tobytes()
        assert all(type(x) is int for x in p.coords)


def test_enumerate_keeps_preimages():
    k = preset_field("Q_sqrt2")
    lat = lattice_from_module(standard_module(k, 1)).reduced()
    body = uniform_ball_body(k, 1, F(3, 2))
    pts = enumerate_below(lat, body, 1.01)
    assert pts, "the unit of the ring should appear"
    for p in pts:
        emb = k.embed_vector(lat.preimage_of(p.coords))
        assert np.allclose(emb, p.point, atol=1e-9)


def test_points_by_gauge_starts_below_the_first_minimum(monkeypatch):
    # generators (2, 0) and (1, 2) have gauges 200 and 100 in the thin box;
    # the first minimum is (0, 4) at 0.04
    lat = integer_lattice([[2, 1], [0, 2]]).reduced()
    body = q_body(2, Box((F(1, 100), F(100))))
    assert min(body.gauge(row) for row in lat.basis) >= 100
    levels = []
    real = lattices.enumerate_below

    def spy(lat, body, t, options):
        levels.append(t)
        return real(lat, body, t, options)

    monkeypatch.setattr(lattices, "enumerate_below", spy)
    first = next(lattices.points_by_gauge(lat, body))
    assert np.allclose(np.abs(first.point), [0, 4])
    assert first.gauge == pytest.approx(0.04)
    assert levels[0] <= first.gauge <= levels[-1] < 2 * first.gauge


def test_points_by_gauge_yields_each_pair_once_in_order(monkeypatch):
    lat = integer_lattice([[3, 1], [1, 2]]).reduced()
    body = q_body(2, Box((F(1), F(1, 3))))
    levels = []
    real = lattices.enumerate_below

    def spy(lat, body, t, options):
        levels.append(t)
        return real(lat, body, t, options)

    monkeypatch.setattr(lattices, "enumerate_below", spy)
    got = []
    for p in lattices.points_by_gauge(lat, body):
        if len(levels) > 3:
            break  # the first point of round 4; rounds 1 to 3 are complete
        got.append(p)
    assert levels[1] == 2 * levels[0] and levels[2] == 2 * levels[1]
    whole = real(lat, body, levels[2], ComputeOptions())
    assert [(p.coords, p.gauge) for p in got] == [(p.coords, p.gauge) for p in whole]
    assert [p.sort_key() for p in got] == sorted(p.sort_key() for p in got)
    pairs = {min(p.coords, tuple(-c for c in p.coords)) for p in got}
    assert len(pairs) == len(got)
    # every round after the first contributed points of its own
    for lo, hi in zip(levels, levels[1:3]):
        assert any(lo * (1 + 1e-12) < p.gauge <= hi * (1 + 1e-12) for p in got)


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
    expected = EmbeddedLattice(Q, 2, np.diag([0.5, 1.0]), np.ones(2))
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
        dual = polar_lattice(lat, dual_module=mod.trace_dual())
        assert dual.conjugated != lat.conjugated
        assert dual.back_flat is not None
    # a wrong module is rejected by the cross-check
    k = preset_field("Q_sqrt2")
    mod = standard_module(k, 1)
    from adelic import ConditioningError
    with pytest.raises(ConditioningError):
        polar_lattice(lattice_from_module(mod), dual_module=mod)


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
    # about 170 nodes for each point at corner gauge 0.5
    body = q_body(2, Box((F(1), F(50))))
    with pytest.raises(EnumerationCapError,
                       match=r"covering search, grid batch 1 \(16 points, corner gauge <= 0.5\)"):
        covering_radius_bounds(z_lattice(2), body, resolution=8,
                               options=ComputeOptions(enumeration_cap=1000))
    assert covering_radius_bounds(z_lattice(2), body, resolution=8) == (0.5, 0.625)


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
