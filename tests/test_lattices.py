"""Embedded lattices: reduction, enumeration, minima, duals, covering radii."""

import math
from fractions import Fraction

import numpy as np
import pytest

from adelic import lattices
from adelic import (
    Ball,
    Box,
    CrossPolytope,
    ComputeOptions,
    DimensionLimitError,
    Ellipsoid,
    EmbeddedLattice,
    EnumerationCapError,
    NumberField,
    PlaceBody,
    ProductBody,
    classical_minima,
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
from field_reference import covering_radius_full_window

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
    assert red.back_map is lat.back_map
    for i, row in enumerate(red.basis):
        vec = red.preimage_of([int(i == j) for j in range(m)])
        assert np.allclose(k.embed_vector(vec), row, atol=1e-9)


def test_back_map_validation():
    with pytest.raises(ValueError, match="back map"):
        EmbeddedLattice(Q, 2, np.eye(2), np.ones(2),
                        back_map=[(Q.one(), Q.zero()), (Q.one(), Q.one())])


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
        assert dual.back_map is not None
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


def test_covering_search_window_cap():
    # a 1 x 50 box over Z^2 needs a window of (2w+2)^2 = 3136 offsets
    body = q_body(2, Box((F(1), F(50))))
    with pytest.raises(EnumerationCapError, match="covering search window is too large"):
        covering_radius_bounds(z_lattice(2), body, resolution=8,
                               options=ComputeOptions(enumeration_cap=1000))
    assert covering_radius_bounds(z_lattice(2), body, resolution=8) == (0.5, 0.625)
