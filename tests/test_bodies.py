"""Per-place convex bodies, gauges, polars, and the product body."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic import (
    Ball,
    Box,
    CrossPolytope,
    Ellipsoid,
    PlaceBody,
    ProductBody,
    preset_field,
    uniform_ball_body,
)

F = Fraction

positive_fractions = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8)


def test_gauge_values_are_the_usual_norms():
    assert Box((F(1), F(1))).gauge_many(np.array([[2.0, 0.0]]))[0] == pytest.approx(2)
    assert Box((F(1, 2), F(1))).gauge_many(np.array([[1.0, 1.0]]))[0] == pytest.approx(2)
    assert Ball(F(1)).gauge_many(np.array([[0.6, 0.8]]))[0] == pytest.approx(1)
    assert CrossPolytope((F(1), F(1))).gauge_many(
        np.array([[0.5, 0.5]]))[0] == pytest.approx(1)
    q = ((F(4), F(0)), (F(0), F(1)))
    assert Ellipsoid(q).gauge_many(np.array([[0.5, 0.0]]))[0] == pytest.approx(1)


def test_polar_formulas():
    assert Ball(F(2)).polar(1) == Ball(F(1, 2))
    assert Ball(F(1)).polar(2) == Ball(F(1, 2))
    assert Box((F(1, 2), F(1))).polar(1) == CrossPolytope((F(2), F(1)))
    assert CrossPolytope((F(3),)).polar(1) == Box((F(1, 3),))
    e = Ellipsoid(((F(4), F(0)), (F(0), F(1))))
    assert e.polar(1) == Ellipsoid(((F(1, 4), F(0)), (F(0), F(1))))
    assert e.polar(2) == Ellipsoid(((F(1), F(0)), (F(0), F(4))))


@settings(max_examples=40, deadline=None)
@given(positive_fractions, st.sampled_from([1, 2]))
def test_ball_polar_involution(r, c):
    b = Ball(r)
    assert b.polar(c).polar(c) == b


@settings(max_examples=40, deadline=None)
@given(st.lists(positive_fractions, min_size=1, max_size=3))
def test_box_cross_polar_involution(hs):
    b = Box(tuple(hs))
    assert b.polar(1).polar(1) == b
    c = CrossPolytope(tuple(hs))
    assert c.polar(1).polar(1) == c


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=4),
                         min_size=2, max_size=2), min_size=2, max_size=2),
       st.sampled_from([1, 2]))
def test_ellipsoid_polar_involution(rows, c):
    # Q = A^T A + I is positive definite for any rational A
    a = np.array([[float(x) for x in row] for row in rows])
    q_exact = [[sum(F(rows[k][i]) * F(rows[k][j]) for k in range(2)) +
                (1 if i == j else 0) for j in range(2)] for i in range(2)]
    e = Ellipsoid(tuple(tuple(row) for row in q_exact))
    assert e.polar(c).polar(c) == e


def test_ellipsoid_validation():
    with pytest.raises(ValueError):
        Ellipsoid(((F(1), F(2)), (F(0), F(1))))  # not symmetric
    with pytest.raises(ValueError):
        Ellipsoid(((F(1), F(2)), (F(2), F(1))))  # indefinite
    with pytest.raises(ValueError):
        Ellipsoid(((F(0), F(0)), (F(0), F(1))))  # singular
    Ellipsoid(((F(2), F(3)), (F(3), F(5))))  # det 1 > 0, fine


def test_pair_rotation_commutation():
    assert Ellipsoid(((F(2), F(0)), (F(0), F(2)))).commutes_with_pair_rotation()
    assert not Ellipsoid(((F(2), F(0)), (F(0), F(3)))).commutes_with_pair_rotation()
    diag = lambda *xs: tuple(
        tuple(F(x) if i == j else F(0) for j, _ in enumerate(xs))
        for i, x in enumerate(xs))
    assert Ellipsoid(diag(2, 2, 3, 3)).commutes_with_pair_rotation()
    assert not Ellipsoid(diag(2, 3, 2, 3)).commutes_with_pair_rotation()


def test_complex_place_restrictions():
    with pytest.raises(ValueError):
        PlaceBody("complex", 2, Box((F(1), F(1))))
    with pytest.raises(ValueError):
        PlaceBody("complex", 2, CrossPolytope((F(1), F(1))))
    with pytest.raises(ValueError):
        PlaceBody("complex", 2, Ellipsoid(((F(2), F(0)), (F(0), F(3)))))
    PlaceBody("complex", 2, Ball(F(1)))
    PlaceBody("complex", 2, Ellipsoid(((F(2), F(0)), (F(0), F(2)))))
    with pytest.raises(ValueError):
        PlaceBody("real", 1, Box((F(1), F(1))))  # dimension mismatch
    with pytest.raises(ValueError):
        PlaceBody("surreal", 1, Ball(F(1)))


def test_complex_gauge_is_rotation_invariant():
    rng = np.random.default_rng(7)
    bodies = [
        PlaceBody("complex", 2, Ball(F(2))),
        PlaceBody("complex", 2, Ellipsoid(((F(3), F(0)), (F(0), F(3))))),
        PlaceBody("complex", 4, Ball(F(1))),
    ]
    for pb in bodies:
        pts = rng.normal(size=(50, pb.dim))
        for phi in (0.3, math.pi / 2, 1.9):
            c, s = math.cos(phi), math.sin(phi)
            rot = np.kron(np.eye(pb.dim // 2), np.array([[c, -s], [s, c]]))
            g0 = pb.gauge_many(pts)
            g1 = pb.gauge_many(pts @ rot.T)
            assert np.allclose(g0, g1, rtol=1e-9, atol=1e-12)


def test_scaled_bodies_scale_gauges_inversely():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 2))
    shapes = [Ball(F(1)), Box((F(1), F(2))), CrossPolytope((F(2), F(1))),
              Ellipsoid(((F(2), F(1)), (F(1), F(2))))]
    for shape in shapes:
        big = shape.scaled(F(3, 2))
        assert np.allclose(big.gauge_many(pts), shape.gauge_many(pts) / 1.5)
    assert Ball(F(2)).scaled(F(3, 2)) == Ball(F(3))
    assert Box((F(1),)).scaled(F(2)) == Box((F(2),))


def test_circumradius_bounds_the_body():
    rng = np.random.default_rng(11)
    shapes = [Ball(F(2)), Box((F(1), F(3))), CrossPolytope((F(2), F(1))),
              Ellipsoid(((F(2), F(1)), (F(1), F(2))))]
    for shape in shapes:
        r = shape.circumradius()
        pts = rng.normal(size=(200, 2))
        g = shape.gauge_many(pts)
        on_boundary = pts / g[:, None]
        assert np.all(np.linalg.norm(on_boundary, axis=1) <= r * (1 + 1e-9))


def test_lipschitz_constant_holds_on_samples():
    rng = np.random.default_rng(13)
    shapes = [Ball(F(2)), Box((F(1), F(3))), CrossPolytope((F(2), F(1))),
              Ellipsoid(((F(2), F(1)), (F(1), F(2))))]
    for shape in shapes:
        lip = shape.lipschitz()
        x = rng.normal(size=(100, 2))
        y = x + rng.normal(scale=0.1, size=(100, 2))
        gx, gy = shape.gauge_many(x), shape.gauge_many(y)
        dist = np.linalg.norm(x - y, axis=1)
        assert np.all(np.abs(gx - gy) <= lip * dist * (1 + 1e-9) + 1e-12)


def test_gauge_polar_duality_sampled():
    """(x, y)_F <= 1 for x, y on the boundaries of a body and its polar."""
    rng = np.random.default_rng(5)
    cases = [
        ("real", 2, Ball(F(2))),
        ("real", 2, Box((F(1), F(3)))),
        ("real", 2, CrossPolytope((F(2), F(1)))),
        ("real", 2, Ellipsoid(((F(2), F(1)), (F(1), F(2))))),
        ("complex", 2, Ball(F(2))),
        ("complex", 2, Ellipsoid(((F(3), F(0)), (F(0), F(3))))),
    ]
    for kind, dim, shape in cases:
        pb = PlaceBody(kind, dim, shape)
        star = pb.polar()
        xs = rng.normal(size=(100, dim))
        ys = rng.normal(size=(100, dim))
        xs /= pb.gauge_many(xs)[:, None]
        ys /= star.gauge_many(ys)[:, None]
        pairing = pb.twist * np.sum(xs * ys, axis=1)
        assert np.all(pairing <= 1 + 1e-9)


def test_gauge_polar_duality_is_tight_somewhere():
    # at the contact point of Ball(r) the pairing reaches exactly 1
    pb = PlaceBody("real", 2, Ball(F(2)))
    star = pb.polar()
    x = np.array([2.0, 0.0])
    y = np.array([0.5, 0.0])
    assert pb.gauge(x) == pytest.approx(1)
    assert star.gauge(y) == pytest.approx(1)
    assert float(np.dot(x, y)) == pytest.approx(1)


@pytest.fixture(params=("Q_sqrt2", "Q_i"), ids=str)
def small_field(request):
    return preset_field(request.param)


def test_product_body_gauge_is_max_over_places():
    k = preset_field("Q_sqrt2")
    body = ProductBody(k, 1, [PlaceBody("real", 1, Box((F(1),))),
                              PlaceBody("real", 1, Box((F(1, 2),)))])
    assert body.gauge(np.array([1.0, 1.0])) == pytest.approx(2)
    assert body.gauge(np.array([1.0, 0.25])) == pytest.approx(1)
    assert body.gauge(k.embed_vector([k.one()])) == pytest.approx(2)


def test_product_body_validation():
    k = preset_field("Q_sqrt2")
    with pytest.raises(ValueError):
        ProductBody(k, 1, [PlaceBody("real", 1, Ball(F(1)))])  # one body missing
    with pytest.raises(ValueError):
        ProductBody(k, 1, [PlaceBody("real", 2, Ball(F(1))),
                           PlaceBody("real", 2, Ball(F(1)))])  # wrong dims
    ki = preset_field("Q_i")
    with pytest.raises(ValueError):
        ProductBody(ki, 1, [PlaceBody("real", 2, Ball(F(1)))])  # wrong kind


def test_product_polar_and_scaling(small_field):
    body = uniform_ball_body(small_field, 1, F(2))
    star = body.polar()
    for pb in star.place_bodies:
        expected = F(1, 2) if pb.kind == "real" else F(1, 4)
        assert pb.shape == Ball(expected)
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(30, body.ambient_dim))
    assert np.allclose(body.scaled(F(2)).gauge_many(pts),
                       body.gauge_many(pts) / 2)


def test_bounding_ellipsoid_contains_the_body():
    rng = np.random.default_rng(19)
    for name in ("Q_sqrt2", "Q_i", "Q_sqrt-3"):
        k = preset_field(name)
        bodies = [uniform_ball_body(k, 1, F(3, 2)), uniform_ball_body(k, 2, F(1))]
        if k.signature[1] == 0:
            bodies.append(ProductBody(k, 1, [
                PlaceBody("real", 1, Box((F(2),))),
                PlaceBody("real", 1, CrossPolytope((F(1),)))]))
        for body in bodies:
            q = body.bounding_ellipsoid()
            pts = rng.normal(size=(200, body.ambient_dim))
            g = body.gauge_many(pts)
            inside = pts / (g[:, None] * 1.0000001)  # just inside gauge 1
            quad = np.sum(inside * inside * q[None, :], axis=1)
            assert np.all(quad <= body.enumeration_quadratic_bound(1.0) * (1 + 1e-9))


def test_bounding_form_fits_skewed_boxes_and_cross_polytopes():
    """Each place's block of the form contains its body and hugs it.

    Random points of a skewed box and of a cross-polytope, their corners
    and vertices included, satisfy x_v^T diag(q_v) x_v <= 1, with equality
    at every vertex; along each axis the form reaches at most sqrt(m)
    halfwidths past the box, not the box's circumradius.
    """
    rng = np.random.default_rng(29)
    k = preset_field("Q_sqrt2")
    h, s = np.array([1.0, 30.0]), np.array([1 / 3, 5.0])
    body = ProductBody(k, 2, [PlaceBody("real", 2, Box((F(1), F(30)))),
                              PlaceBody("real", 2, CrossPolytope((F(1, 3), F(5))))])
    q = body.bounding_ellipsoid()
    (_, a1, b1), (_, a2, b2) = body.slices
    corners = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]]) * h
    box_pts = np.vstack([corners, rng.uniform(-h, h, size=(500, 2))])
    vertices = np.vstack([np.diag(s), -np.diag(s)])
    dirs = rng.normal(size=(500, 2))
    cross = body.place_bodies[1].shape
    cross_pts = np.vstack([vertices, dirs / cross.gauge_many(dirs)[:, None]
                           * rng.uniform(0, 1, size=(500, 1))])
    for pts, qv, tips in ((box_pts, q[a1:b1], corners), (cross_pts, q[a2:b2], vertices)):
        assert np.all(np.sum(pts * pts * qv, axis=1) <= 1 + 1e-12)
        assert np.sum(tips * tips * qv, axis=1) == pytest.approx(np.ones(len(tips)))
    assert np.all(1 / np.sqrt(q[a1:b1]) <= math.sqrt(2) * h * (1 + 1e-12))


def test_product_polar_inclusion_by_sampling():
    """Points of the polar-of-product lie in the product of the polars.

    The polar of the product body under the summed pairing has gauge
    sum_v gauge_polar_v(x_v); normalizing by that sum gives a member,
    and every per-place polar gauge of the member must be <= 1.
    """
    rng = np.random.default_rng(23)
    for name in ("Q_sqrt2", "Q_i", "Q_sqrt-3"):
        k = preset_field(name)
        body = uniform_ball_body(k, 1, F(3, 2))
        polars = [pb.polar() for pb in body.place_bodies]
        pts = rng.normal(size=(100, body.ambient_dim))
        total = np.zeros(len(pts))
        for pb, (_, a, b) in zip(polars, body.slices):
            total += pb.gauge_many(pts[:, a:b])
        members = pts / total[:, None]
        for pb, (_, a, b) in zip(polars, body.slices):
            assert np.all(pb.gauge_many(members[:, a:b]) <= 1 + 1e-9)


def test_positivity_validation():
    with pytest.raises(ValueError):
        Ball(F(0))
    with pytest.raises(ValueError):
        Ball(F(-1))
    with pytest.raises(ValueError):
        Box((F(1), F(0)))
    with pytest.raises(ValueError):
        CrossPolytope(())
