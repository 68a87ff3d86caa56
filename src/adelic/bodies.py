"""Symmetric convex bodies at the archimedean places and their polars.

Shape parameters are exact rationals so that taking the polar twice
returns the original body on the nose.  Gauge evaluation is the only
floating-point step.  At a complex place the pairing carries a factor 2,
which shows up as the constant c in every polar formula, and bodies must
be invariant under the simultaneous rotation of all (Re, Im) pairs.
An `AdelicBody` pairs a module with the product of the place bodies; its
polar is the trace dual with the polar at every place, all exact.

Shapes, their validation and their polars are pure Python.  The float
side (gauges, bounding forms, Lipschitz constants) names numpy through
`numberfield.np`, which imports it on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactla import mat_det, mat_inv
from .numberfield import NumberField, float_of, np
from .omodules import KModule

SHAPE_BOUND = 2.0 ** 511  # a shape parameter x within it has x^2 and 1 / x^2 finite and nonzero


def _as_fraction_tuple(xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of a given radius; valid at every place."""

    radius: Fraction

    def __post_init__(self):
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def intrinsic_dim(self) -> int | None:
        return None

    @cached_property
    def _r(self) -> float:
        return float_of(self.radius, "ball radius", SHAPE_BOUND)

    def gauge_many(self, pts: np.ndarray) -> np.ndarray:
        return np.linalg.norm(pts, axis=1) / self._r

    def polar(self, c: int) -> "Ball":
        return Ball(Fraction(1) / (c * self.radius))

    def circumradius(self) -> float:
        return self._r

    def bounding_diag(self, dim: int) -> np.ndarray:
        r = self.circumradius()
        return np.full(dim, 1.0 / (r * r))

    def lipschitz(self) -> float:
        return 1.0 / self._r

    def scaled(self, f: Fraction) -> "Ball":
        return Ball(self.radius * f)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by halfwidths; real places only."""

    halfwidths: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "halfwidths", _as_fraction_tuple(self.halfwidths))
        if not self.halfwidths or any(h <= 0 for h in self.halfwidths):
            raise ValueError("box halfwidths must be positive")

    def intrinsic_dim(self) -> int:
        return len(self.halfwidths)

    @cached_property
    def _h(self) -> np.ndarray:
        return np.array([float_of(h, "box halfwidth", SHAPE_BOUND) for h in self.halfwidths])

    def gauge_many(self, pts: np.ndarray) -> np.ndarray:
        return np.max(np.abs(pts) / self._h, axis=1)

    def polar(self, c: int) -> "CrossPolytope":
        return CrossPolytope(tuple(Fraction(1) / (c * h) for h in self.halfwidths))

    def circumradius(self) -> float:
        return float(np.linalg.norm(self._h))

    def bounding_diag(self, dim: int) -> np.ndarray:
        # sum x_i^2 / h_i^2 <= m on the box
        return 1.0 / (dim * self._h ** 2)

    def lipschitz(self) -> float:
        return float(np.max(1.0 / self._h))

    def scaled(self, f: Fraction) -> "Box":
        return Box(tuple(h * f for h in self.halfwidths))


@dataclass(frozen=True)
class CrossPolytope:
    """Convex hull of +-scale_i e_i; real places only."""

    scales: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "scales", _as_fraction_tuple(self.scales))
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ValueError("cross-polytope scales must be positive")

    def intrinsic_dim(self) -> int:
        return len(self.scales)

    @cached_property
    def _s(self) -> np.ndarray:
        return np.array([float_of(s, "cross-polytope scale", SHAPE_BOUND) for s in self.scales])

    def gauge_many(self, pts: np.ndarray) -> np.ndarray:
        return np.sum(np.abs(pts) / self._s, axis=1)

    def polar(self, c: int) -> "Box":
        return Box(tuple(Fraction(1) / (c * s) for s in self.scales))

    def circumradius(self) -> float:
        return float(np.max(self._s))

    def bounding_diag(self, dim: int) -> np.ndarray:
        # sum x_i^2 / s_i^2 <= (sum |x_i| / s_i)^2 <= 1 on the cross-polytope
        return 1.0 / self._s ** 2

    def lipschitz(self) -> float:
        return float(np.linalg.norm(1.0 / self._s))

    def scaled(self, f: Fraction) -> "CrossPolytope":
        return CrossPolytope(tuple(s * f for s in self.scales))


@dataclass(frozen=True)
class Ellipsoid:
    """Quadratic-form body {x : x^T Q x <= 1} for symmetric positive definite Q."""

    q: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        q = tuple(_as_fraction_tuple(row) for row in self.q)
        object.__setattr__(self, "q", q)
        m = len(q)
        if any(len(row) != m for row in q):
            raise ValueError("quadratic form must be square")
        if any(q[i][j] != q[j][i] for i in range(m) for j in range(i)):
            raise ValueError("quadratic form must be symmetric")
        # Sylvester criterion, exact
        if any(mat_det([list(row[:k]) for row in q[:k]]) <= 0 for k in range(1, m + 1)):
            raise ValueError("quadratic form must be positive definite")

    def intrinsic_dim(self) -> int:
        return len(self.q)

    @cached_property
    def _qf(self) -> np.ndarray:
        return np.array([[float_of(x, "ellipsoid form entry", SHAPE_BOUND) for x in row]
                         for row in self.q])

    def gauge_many(self, pts: np.ndarray) -> np.ndarray:
        # elementwise products and a per-row sum: unlike einsum or a matmul,
        # a row's gauge does not depend on the other rows of the batch
        terms = (pts[:, :, None] * self._qf) * pts[:, None, :]
        return np.sqrt(terms.reshape(len(pts), -1).sum(axis=1))

    def polar(self, c: int) -> "Ellipsoid":
        inv = mat_inv([list(row) for row in self.q])
        c2 = Fraction(c * c)
        return Ellipsoid(tuple(tuple(c2 * x for x in row) for row in inv))

    def circumradius(self) -> float:
        return 1.0 / np.sqrt(np.min(np.linalg.eigvalsh(self._qf)))

    def bounding_diag(self, dim: int) -> np.ndarray:
        r = self.circumradius()
        return np.full(dim, 1.0 / (r * r))

    def lipschitz(self) -> float:
        return float(np.sqrt(np.max(np.linalg.eigvalsh(self._qf))))

    def scaled(self, f: Fraction) -> "Ellipsoid":
        f2 = Fraction(f) ** 2
        return Ellipsoid(tuple(tuple(x / f2 for x in row) for row in self.q))

    def commutes_with_pair_rotation(self) -> bool:
        """Exact check that Q commutes with the block rotation J (J_2k = -e, J_2k+1 = e)."""
        m = len(self.q)
        if m % 2 != 0:
            return False

        def jq(i, j):  # (J Q)_{ij}: J swaps each (2k, 2k+1) row pair with signs
            return -self.q[i + 1][j] if i % 2 == 0 else self.q[i - 1][j]

        def qj(i, j):  # (Q J)_{ij}
            return self.q[i][j + 1] if j % 2 == 0 else -self.q[i][j - 1]

        return all(jq(i, j) == qj(i, j) for i in range(m) for j in range(m))


Shape = Ball | Box | CrossPolytope | Ellipsoid

# scenario name of each shape; a shape's one dataclass field is its scenario key
SHAPES = {"ball": Ball, "box": Box, "cross": CrossPolytope, "ellipsoid": Ellipsoid}


@dataclass(frozen=True)
class PlaceBody:
    """A shape attached to one archimedean place of known kind and ambient dim."""

    kind: str  # "real" or "complex"
    dim: int
    shape: Shape

    def __post_init__(self):
        if self.kind not in ("real", "complex"):
            raise ValueError("place kind must be 'real' or 'complex'")
        idim = self.shape.intrinsic_dim()
        if idim is not None and idim != self.dim:
            raise ValueError("shape dimension does not match the place dimension")
        if self.kind == "complex":
            if isinstance(self.shape, (Box, CrossPolytope)):
                raise ValueError("boxes and cross-polytopes are only valid at real places")
            if isinstance(self.shape, Ellipsoid) and not self.shape.commutes_with_pair_rotation():
                raise ValueError(
                    "an ellipsoid at a complex place must be rotation invariant "
                    "(Q must commute with the pairwise rotation)")

    @property
    def twist(self) -> int:
        return 2 if self.kind == "complex" else 1

    def gauge(self, x: np.ndarray) -> float:
        return float(self.shape.gauge_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def gauge_many(self, pts: np.ndarray) -> np.ndarray:
        return self.shape.gauge_many(pts)

    def polar(self) -> "PlaceBody":
        return PlaceBody(self.kind, self.dim, self.shape.polar(self.twist))

    def scaled(self, f: Fraction) -> "PlaceBody":
        return PlaceBody(self.kind, self.dim, self.shape.scaled(Fraction(f)))


class ProductBody:
    """Product of per-place bodies; the gauge is the max of the place gauges."""

    def __init__(self, field: NumberField, n: int, place_bodies: list[PlaceBody]):
        dims = field.place_dims(n)
        kinds = [k for k, _ in field.places]
        if len(place_bodies) != len(dims):
            raise ValueError(
                f"expected one body per archimedean place "
                f"({len(dims)}), got {len(place_bodies)}")
        for pb, dim, kind in zip(place_bodies, dims, kinds):
            if pb.dim != dim:
                raise ValueError(f"body dimension {pb.dim} does not match place dimension {dim}")
            if pb.kind != kind:
                raise ValueError(f"body kind {pb.kind!r} does not match place kind {kind!r}")
        self.field = field
        self.n = n
        self.place_bodies = list(place_bodies)
        self.slices = field.place_slices(n)
        self.ambient_dim = n * field.degree

    def gauge(self, x: np.ndarray) -> float:
        return float(self.gauge_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def gauge_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(len(pts))
        for pb, (_, a, b) in zip(self.place_bodies, self.slices):
            np.maximum(out, pb.gauge_many(pts[:, a:b]), out=out)
        return out

    def polar(self) -> "ProductBody":
        return ProductBody(self.field, self.n, [pb.polar() for pb in self.place_bodies])

    def scaled(self, f: Fraction) -> "ProductBody":
        return ProductBody(self.field, self.n, [pb.scaled(f) for pb in self.place_bodies])

    def bounding_ellipsoid(self) -> np.ndarray:
        """Diagonal q with {gauge <= 1} contained in {x^T diag(q) x <= #places}.

        Per place each shape gives its own diagonal bound with
        x_v^T diag(q_v) x_v <= 1 on the body: 1/(m h_i^2) for a box of m
        halfwidths h_i, 1/s_i^2 for a cross-polytope, and the circumradius
        ball for balls and ellipsoids.  Summing the blocks gives the bound
        used to seed lattice enumeration.
        """
        q = np.empty(self.ambient_dim)
        for pb, (_, a, b) in zip(self.place_bodies, self.slices):
            q[a:b] = pb.shape.bounding_diag(b - a)
        return q

    def enumeration_quadratic_bound(self, t: float) -> float:
        """Right-hand side for x^T diag(q) x covering {gauge <= t}."""
        return len(self.place_bodies) * t * t

    def lipschitz(self) -> float:
        return max(pb.shape.lipschitz() for pb in self.place_bodies)


def uniform_ball_body(field: NumberField, n: int, radius: Fraction) -> ProductBody:
    """The same ball at every place; the usual default body."""
    bodies = [PlaceBody(kind, dim, Ball(Fraction(radius)))
              for (kind, _), dim in zip(field.places, field.place_dims(n))]
    return ProductBody(field, n, bodies)


class AdelicBody:
    """A module together with a convex body at every archimedean place.

    `conjugated` records which of the two mirror embeddings carries the
    module to its lattice; taking the polar flips it, so that the dual
    lattice is exactly the embedded dual module.
    """

    def __init__(self, module: KModule, infinite_part: ProductBody, conjugated: bool = False):
        if infinite_part.field is not module.field:
            raise ValueError("module and bodies live over different fields")
        if infinite_part.n != module.rank:
            raise ValueError("body rank does not match module rank")
        self.field = module.field
        self.n = module.rank
        self.finite_part = module
        self.infinite_part = infinite_part
        self.conjugated = conjugated

    def lattice(self):
        """The embedded module, an `ExactLattice`; the first call loads the float layer."""
        from .lattices import lattice_from_module
        return lattice_from_module(self.finite_part, self.conjugated)

    def scaled(self, alpha: Fraction) -> "AdelicBody":
        """Dilation: touches the infinite places only."""
        return AdelicBody(self.finite_part, self.infinite_part.scaled(alpha), self.conjugated)


def adelic_polar(body: AdelicBody) -> AdelicBody:
    return AdelicBody(
        body.finite_part.trace_dual(),
        body.infinite_part.polar(),
        not body.conjugated,
    )


def adelic_equal(a: AdelicBody, b: AdelicBody) -> bool:
    """Same module, identical body parameters, same embedding side."""
    if a.conjugated != b.conjugated or a.n != b.n:
        return False
    if not a.finite_part.equals(b.finite_part):
        return False
    return all(
        pa.kind == pb.kind and pa.shape == pb.shape
        for pa, pb in zip(a.infinite_part.place_bodies, b.infinite_part.place_bodies))
