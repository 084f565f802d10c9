"""Memory-requirement annotation of synthetic jobs (paper §IV-C).

The paper adopts a simple model suggested by the data of Setia et al.: 55 %
of the jobs have tasks requiring 10 % of a node's memory; the remaining 45 %
have tasks requiring ``10·x %`` where ``x`` is uniform over {2, …, 10}.  The
resulting distribution has plenty of small-memory jobs (so co-location is
usually possible) and a tail of jobs that monopolise a node's memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["MemoryRequirementModel"]


@dataclass(frozen=True)
class MemoryRequirementModel:
    """Setia-style discrete memory requirement distribution."""

    #: Probability of the small (base) memory requirement.
    small_probability: float = 0.55
    #: Memory requirement of "small" jobs, as a node fraction.
    small_requirement: float = 0.10
    #: Multipliers of the base requirement for the remaining jobs.
    large_multipliers: Tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8, 9, 10)

    def __post_init__(self) -> None:
        if not (0.0 <= self.small_probability <= 1.0):
            raise ConfigurationError("small_probability must be in [0, 1]")
        if not (0.0 < self.small_requirement <= 1.0):
            raise ConfigurationError("small_requirement must be in (0, 1]")
        if not self.large_multipliers:
            raise ConfigurationError("large_multipliers must not be empty")
        for multiplier in self.large_multipliers:
            if multiplier < 1 or multiplier * self.small_requirement > 1.0 + 1e-9:
                raise ConfigurationError(
                    f"multiplier {multiplier} pushes the requirement beyond a node"
                )

    def memory_requirement(self, rng: np.random.Generator) -> float:
        """Sample one per-task memory requirement (fraction of node memory)."""
        if rng.random() < self.small_probability:
            return self.small_requirement
        multiplier = int(rng.choice(self.large_multipliers))
        return min(1.0, multiplier * self.small_requirement)

    def support(self) -> Sequence[float]:
        """All values the distribution can produce (useful for tests)."""
        values = {self.small_requirement}
        values.update(
            min(1.0, m * self.small_requirement) for m in self.large_multipliers
        )
        return sorted(values)
