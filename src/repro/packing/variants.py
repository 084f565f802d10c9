"""The MCB family of vector-packing heuristics and the packer registry.

The paper uses the two-resource MCB8 heuristic of Leinberger et al.; the
original MCB family differs in how items are ordered within each list (by
largest component for MCB8, by sum of components, by a single component, ...).
This module implements that family in a parameterised form and exposes a
registry of it and the decreasing-fit baselines of
:mod:`repro.packing.first_fit`, used by the packing ablation study.

Every packer shares the signature ``(jobs, cpus, num_bins, capacities=None)
-> PackingResult`` of :func:`repro.packing.mcb8.mcb8_pack_jobs`: each task of
``jobs[k]`` needs ``cpus[k]``, and ``capacities`` carries per-bin ``(cpu,
memory)`` capacities on heterogeneous platforms (None means the paper's unit
bins).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..obs.telemetry import timed_phase
from .first_fit import (
    best_fit_decreasing_pack,
    first_fit_decreasing_pack,
    worst_fit_decreasing_pack,
)
from .item import PackingJob, PackingResult
from .mcb8 import BinCapacities, _pack_jobs, mcb8_pack_jobs

__all__ = [
    "mcb_family_pack",
    "PACKER_NAMES",
    "get_packer",
]

#: Ordering keys of the MCB family.  Each maps a task's ``(cpu, memory)``
#: requirements to a sort value; tasks are considered in non-increasing order
#: of that value.
_ORDERINGS: Dict[str, Callable[[float, float], float]] = {
    # MCB8: order by the largest of the two requirements (the paper's choice).
    "max": max,
    # MCB6-style: order by the sum of the requirements.
    "sum": lambda cpu, memory: cpu + memory,
    # Single-dimension orderings (MCB2/MCB4-style degenerate variants).
    "cpu": lambda cpu, memory: cpu,
    "memory": lambda cpu, memory: memory,
    # Order by the imbalance between the two requirements.
    "difference": lambda cpu, memory: abs(cpu - memory),
}


@timed_phase("packing.mcb_family")
def mcb_family_pack(
    jobs: Sequence[PackingJob],
    cpus: Sequence[float],
    num_bins: int,
    capacities: BinCapacities = None,
    *,
    ordering: str = "max",
) -> PackingResult:
    """Multi-capacity balancing pack with a configurable item ordering.

    The same fill as :func:`repro.packing.mcb8.mcb8_pack_jobs` — split tasks
    into CPU-heavy and memory-heavy lists, fill one node at a time, always
    drawing from the list that goes against the node's current imbalance —
    with the two lists sorted by the requested ``ordering`` key instead of
    MCB8's largest-component key (``"max"`` *is* MCB8).
    """
    if ordering not in _ORDERINGS:
        raise ConfigurationError(
            f"unknown MCB ordering {ordering!r}; known orderings: "
            f"{', '.join(sorted(_ORDERINGS))}"
        )
    return _pack_jobs(jobs, cpus, num_bins, capacities, _ORDERINGS[ordering])


#: Registry of named packers usable by the ablation experiments.
_PACKERS: Dict[str, Callable[..., PackingResult]] = {
    "mcb8": mcb8_pack_jobs,
    "mcb-sum": partial(mcb_family_pack, ordering="sum"),
    "mcb-cpu": partial(mcb_family_pack, ordering="cpu"),
    "mcb-memory": partial(mcb_family_pack, ordering="memory"),
    "mcb-difference": partial(mcb_family_pack, ordering="difference"),
    "first-fit": first_fit_decreasing_pack,
    "best-fit": best_fit_decreasing_pack,
    "worst-fit": worst_fit_decreasing_pack,
}

#: Names accepted by :func:`get_packer`, in a stable order.
PACKER_NAMES: Tuple[str, ...] = tuple(sorted(_PACKERS))


def get_packer(name: str) -> Callable[..., PackingResult]:
    """Look up a packer by registry name."""
    key = name.strip().lower()
    if key not in _PACKERS:
        raise ConfigurationError(
            f"unknown packer {name!r}; known packers: {', '.join(PACKER_NAMES)}"
        )
    return _PACKERS[key]
