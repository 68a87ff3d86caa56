"""Convex bodies over the adeles of a number field.

Construction of adelic convex bodies (a module at the finite places, a
convex body per archimedean place), their polars via trace duality,
adelic successive minima by lattice enumeration, and verification of the
transference bounds on minima products.
"""

from .config import ComputeOptions, DEFAULT_OPTIONS
from .errors import (
    ConditioningError,
    DimensionLimitError,
    EnumerationCapError,
    ScenarioError,
)
from .numberfield import (
    FieldElement,
    NumberField,
    PRESET_FIELDS,
    preset_field,
    quadratic_field,
    rational_field,
)
from .omodules import (
    FractionalIdeal,
    KModule,
    KRankTracker,
    module_from_matrix,
    standard_module,
)
from .bodies import (
    Ball,
    Box,
    CrossPolytope,
    Ellipsoid,
    PlaceBody,
    ProductBody,
    uniform_ball_body,
)
from .lattices import (
    EmbeddedLattice,
    LatticePoint,
    covering_radius_bounds,
    enumerate_below,
    lattice_equal,
    lattice_from_module,
    polar_lattice,
)
from .transference import (
    AdelicBody,
    HypothesisFlags,
    MinimaReport,
    MuProductReport,
    TransferenceReport,
    adelic_equal,
    adelic_minima,
    adelic_polar,
    inhomogeneous_minimum,
    mu_product_report,
    transference_check,
)
from .scenario import (
    PRESET_SCENARIOS,
    Scenario,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdelicBody",
    "Ball",
    "Box",
    "ComputeOptions",
    "ConditioningError",
    "CrossPolytope",
    "DEFAULT_OPTIONS",
    "DimensionLimitError",
    "Ellipsoid",
    "EmbeddedLattice",
    "EnumerationCapError",
    "FieldElement",
    "FractionalIdeal",
    "HypothesisFlags",
    "KModule",
    "KRankTracker",
    "LatticePoint",
    "MinimaReport",
    "MuProductReport",
    "NumberField",
    "PRESET_FIELDS",
    "PRESET_SCENARIOS",
    "PlaceBody",
    "ProductBody",
    "Scenario",
    "ScenarioError",
    "TransferenceReport",
    "adelic_equal",
    "adelic_minima",
    "adelic_polar",
    "covering_radius_bounds",
    "enumerate_below",
    "inhomogeneous_minimum",
    "lattice_equal",
    "lattice_from_module",
    "module_from_matrix",
    "mu_product_report",
    "parse_scenario",
    "polar_lattice",
    "preset_field",
    "quadratic_field",
    "rational_field",
    "standard_module",
    "transference_check",
    "uniform_ball_body",
]
