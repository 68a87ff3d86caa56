"""Shared exception types and the default search budgets."""

ENUMERATION_CAP = 1_000_000  # default nodes of one enumeration round or covering grid batch
RESOLUTION = 64  # default covering grid points per axis


class ScenarioError(ValueError):
    """Scenario text failed to parse or validate; message names section/key/line."""


class EnumerationCapError(RuntimeError):
    """Lattice point enumeration exceeded the configured point cap."""


class ConditioningError(RuntimeError):
    """A numerical kernel refused to proceed on an ill-conditioned input."""


class DimensionLimitError(RuntimeError):
    """Covering-radius bracketing is restricted to ambient dimension <= 4."""
