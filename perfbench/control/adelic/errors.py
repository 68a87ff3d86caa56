"""Shared exception types."""


class ScenarioError(ValueError):
    """Scenario text failed to parse or validate; message names section/key/line."""


class EnumerationCapError(RuntimeError):
    """Lattice point enumeration exceeded the configured point cap."""


class ConditioningError(RuntimeError):
    """A numerical kernel refused to proceed on an ill-conditioned input."""


class DimensionLimitError(RuntimeError):
    """Covering-radius bracketing is restricted to ambient dimension <= 4."""
