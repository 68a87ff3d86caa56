"""Computation knobs shared across the numeric layers."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ComputeOptions:
    """Search budget configuration.

    resolution is the covering grid's points per axis; enumeration_cap
    bounds the nodes of one enumeration round or covering grid batch.
    """

    resolution: int = 64
    enumeration_cap: int = 1_000_000

    def with_overrides(self, **kw) -> "ComputeOptions":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT_OPTIONS = ComputeOptions()
