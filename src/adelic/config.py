"""Computation knobs shared across the numeric layers."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ComputeOptions:
    """Precision / search budget configuration.

    precision_bits drives the root-finder convergence target (the working
    arithmetic is double precision).
    """

    precision_bits: int = 53
    resolution: int = 64
    enumeration_cap: int = 1_000_000

    def with_overrides(self, **kw) -> "ComputeOptions":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw) if kw else self


DEFAULT_OPTIONS = ComputeOptions()
