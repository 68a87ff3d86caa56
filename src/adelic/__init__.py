"""Convex bodies over the adeles of a number field.

Construction of adelic convex bodies (a module at the finite places, a
convex body per archimedean place), their polars via trace duality,
adelic successive minima by lattice enumeration, and verification of the
transference bounds on minima products.

The package has two layers.  The exact layer (`errors`, `exactla`,
`numberfield`, `omodules`, `bodies`, `scenario`, `cli`) imports no
numpy: fields, modules, shapes, scenarios and polars are integers and
rationals.  The float layer (`lattices`, `transference`, and the
embeddings and gauges of fields and bodies) imports numpy on its first
use.  Every export is resolved on first access (PEP 562), so
`import adelic` loads neither layer; `adelic.adelic_polar` loads the
exact one, `adelic.transference_check` both.  In a process that has
already imported numpy, `import adelic` imports both layers at once:
laziness would spare no numpy import there, only move the float layer's
own import into its first call.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("ConditioningError", "DimensionLimitError", "EnumerationCapError",
               "ScenarioError"),
    "numberfield": ("FieldElement", "NumberField", "PRESET_FIELDS", "preset_field",
                    "quadratic_field", "rational_field"),
    "omodules": ("FractionalIdeal", "KModule", "KRankTracker", "module_from_matrix",
                 "standard_module"),
    "bodies": ("AdelicBody", "Ball", "Box", "CrossPolytope", "Ellipsoid", "PlaceBody",
               "ProductBody", "adelic_equal", "adelic_polar", "uniform_ball_body"),
    "lattices": ("EmbeddedLattice", "LatticePoint", "covering_radius_bounds",
                 "enumerate_below", "lattice_equal", "lattice_from_module"),
    "transference": ("HypothesisFlags", "MinimaReport", "MuProductReport",
                     "TransferenceReport", "adelic_minima", "mu_product_report",
                     "transference_check"),
    "scenario": ("PRESET_SCENARIOS", "Scenario", "parse_scenario"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "exactla")

__all__ = sorted(_HOME)
_DUNDERS = [k for k in globals() if k.startswith("__")]  # taken before the two hooks exist


def __getattr__(name: str):
    # not cached here: a name rebound in its home module (by a tracer, say) reads through
    if name in _HOME:
        home = _HOME[name]  # once imported, the submodule is an attribute of the package
        return getattr(globals().get(home) or _import_module(f"{__name__}.{home}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    # what the package listed when it imported every export: no hook, no private name
    return sorted({*__all__, *_SUBMODULES, *_DUNDERS, *(k for k in globals() if k[0] != "_")})


if _sys.modules.get("numpy") is not None:
    from . import lattices, transference  # noqa: F401
