"""CPU-need annotation of synthetic jobs (paper §IV-C).

The paper assumes quad-core nodes whose CPU is shared fluidly by the VM
monitor, and makes two deliberately *pessimistic* assumptions for DFRS:

* the single task of a one-task job is sequential and CPU-bound, so its CPU
  need is ``1/cores`` of the node (25 % on a quad-core node);
* every task of a multi-task job is multi-threaded and CPU-bound, so its CPU
  need is 100 % of the node.

Pessimistic because CPU-bound tasks leave no slack for co-location — any
sharing directly slows jobs down.  The model is parameterised so that
sensitivity studies can soften these assumptions (e.g. a fraction of parallel
jobs that are only 50 % CPU-bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["CpuNeedModel"]


@dataclass(frozen=True)
class CpuNeedModel:
    """Maps a job's size to the per-task CPU need of its tasks."""

    #: Number of cores per node (a sequential task uses one core).
    cores_per_node: int = 4
    #: CPU need of tasks in multi-task jobs (1.0 = fully CPU-bound threads).
    parallel_task_need: float = 1.0
    #: Optional fraction of parallel jobs whose tasks are only partially
    #: CPU-bound; used by sensitivity ablations, 0 reproduces the paper.
    partial_need_fraction: float = 0.0
    #: CPU need used for that partially CPU-bound fraction.
    partial_need_value: float = 0.5

    def __post_init__(self) -> None:
        if self.cores_per_node < 1:
            raise ConfigurationError("cores_per_node must be >= 1")
        if not (0.0 < self.parallel_task_need <= 1.0):
            raise ConfigurationError("parallel_task_need must be in (0, 1]")
        if not (0.0 <= self.partial_need_fraction <= 1.0):
            raise ConfigurationError("partial_need_fraction must be in [0, 1]")
        if not (0.0 < self.partial_need_value <= 1.0):
            raise ConfigurationError("partial_need_value must be in (0, 1]")

    @property
    def sequential_need(self) -> float:
        """CPU need of a sequential, CPU-bound task."""
        return 1.0 / self.cores_per_node

    def cpu_need(self, num_tasks: int, rng: Optional[np.random.Generator] = None) -> float:
        """Per-task CPU need for a job with ``num_tasks`` tasks."""
        if num_tasks < 1:
            raise ConfigurationError(f"num_tasks must be >= 1, got {num_tasks}")
        if num_tasks == 1:
            return self.sequential_need
        if self.partial_need_fraction > 0.0 and rng is not None:
            if rng.random() < self.partial_need_fraction:
                return self.partial_need_value
        return self.parallel_task_need
