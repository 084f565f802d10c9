"""User-priority (weighted-yield) DFRS scheduling.

The paper's conclusion lists "mechanisms for implementing user priorities,
such as those supported in batch scheduling systems" as needed future work.
This module provides that mechanism on top of DYNMCB8-ASAP-PER:

* every job receives a **weight** from a user-supplied weight function (a
  plain callable on the job view, so weights can encode users, queues, job
  size, or anything else visible to a non-clairvoyant scheduler);
* at every repacking, instead of giving all placed jobs the same yield, the
  scheduler performs **weighted max–min sharing**: it finds the largest
  ``z`` such that giving every job the yield ``min(1, weight × z)`` keeps
  every node's allocated CPU within capacity, for the placements chosen by
  the MCB8 packing;
* leftover CPU then goes out heaviest weight first, ties to the smaller
  total CPU need, then to placement order.

With all weights equal to 1 the behaviour reduces exactly to
DYNMCB8-ASAP-PER.  Weighted sharing only changes CPU shares, never
placements, so the preemption/migration profile is unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from ...core.allocation import AllocationDecision
from ...core.cluster import CAPACITY_EPSILON, Cluster
from ...core.context import JobView, SchedulingContext
from ...core.job import MINIMUM_YIELD
from ...exceptions import ConfigurationError
from .periodic import DEFAULT_PERIOD, DynMcb8AsapPeriodicScheduler
from .yield_opt import CarriedLoads, build_allocations, job_loads, raise_yields_in_order

__all__ = [
    "WeightFunction",
    "uniform_weight",
    "inverse_size_weight",
    "weighted_fair_yields",
    "weighted_improve_yield",
    "WeightedYieldScheduler",
]

#: A weight function maps a job view to a strictly positive weight.
WeightFunction = Callable[[JobView], float]

#: Bisection steps of :func:`weighted_fair_yields` once ``z`` is bracketed.
_BISECTION_STEPS = 40


def uniform_weight(view: JobView) -> float:
    """Every job weighs the same (reduces to plain max–min sharing)."""
    return 1.0


def inverse_size_weight(view: JobView) -> float:
    """Favour narrow jobs: weight ``1 / num_tasks``.

    This encodes the common administrative policy of protecting small
    (interactive, debugging) jobs from wide production runs.
    """
    return 1.0 / view.num_tasks


def _check_weights(weights: Mapping[int, float]) -> None:
    for job_id, weight in weights.items():
        if weight <= 0 or not np.isfinite(weight):
            raise ConfigurationError(
                f"job {job_id}: weight must be finite and > 0, got {weight}"
            )


def weighted_fair_yields(
    placements: Mapping[int, Tuple[int, ...]],
    jobs: Mapping[int, JobView],
    cluster: Cluster,
    weights: Mapping[int, float],
    carried: Optional[CarriedLoads] = None,
) -> Dict[int, float]:
    """Weighted max–min yields for fixed placements.

    Finds (by bisection) the largest ``z`` such that yields
    ``min(1, max(MINIMUM_YIELD, weight_j × z))`` keep the allocated CPU of
    every node within capacity, and returns those yields.  The floor is part
    of the feasibility test: lifting a light job to it afterwards could
    overcommit a node that the search left exactly full.
    """
    if not placements:
        return {}
    _check_weights({job_id: weights[job_id] for job_id in placements})

    # Reused by every feasibility probe.
    loads = job_loads(placements, jobs) if carried is None else carried(placements, jobs)
    capacity = cluster.cpu_capacity_vector()

    def feasible(z: float) -> bool:
        allocated = np.zeros(cluster.num_nodes, dtype=float)
        for job_id in placements:
            value = min(1.0, max(MINIMUM_YIELD, weights[job_id] * z))
            for node, load in loads[job_id]:
                allocated[node] += load * value
        return bool(np.all(allocated <= capacity + CAPACITY_EPSILON))

    max_weight = max(weights[job_id] for job_id in placements)
    low, high = 0.0, 1.0 / max_weight  # z beyond this point changes nothing...
    # ...unless smaller weights still grow; extend until every yield saturates.
    while any(min(1.0, weights[job_id] * high) < 1.0 for job_id in placements) and feasible(high):
        low = high
        high *= 2.0
    if feasible(high):
        low = high
    for _ in range(_BISECTION_STEPS):
        mid = (low + high) / 2.0
        if feasible(mid):
            low = mid
        else:
            high = mid
    return {
        job_id: min(1.0, max(MINIMUM_YIELD, weights[job_id] * low))
        for job_id in placements
    }


def weighted_improve_yield(
    placements: Mapping[int, Tuple[int, ...]],
    yields: Mapping[int, float],
    jobs: Mapping[int, JobView],
    cluster: Cluster,
    weights: Mapping[int, float],
    carried: Optional[CarriedLoads] = None,
) -> Dict[int, float]:
    """The average-yield pass, heaviest weight first: ties go to the smaller
    total CPU need, then to placement order."""
    _check_weights({job_id: weights[job_id] for job_id in placements})
    return raise_yields_in_order(
        placements, yields, jobs, cluster,
        lambda job: (-weights[job], jobs[job].total_cpu_need), carried,
    )


class WeightedYieldScheduler(DynMcb8AsapPeriodicScheduler):
    """DYNMCB8-ASAP-PER with weighted max–min CPU sharing."""

    def __init__(
        self,
        period: float = DEFAULT_PERIOD,
        *,
        weight_function: WeightFunction = inverse_size_weight,
    ) -> None:
        super().__init__(period)
        if not callable(weight_function):
            raise ConfigurationError("weight_function must be callable")
        self.weight_function = weight_function

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"dynmcb8-asap-weighted-per-{int(self.period)}"

    def _weights(self, context: SchedulingContext, placements) -> Dict[int, float]:
        return {
            job_id: float(self.weight_function(context.jobs[job_id]))
            for job_id in placements
        }

    def _repack_all(
        self, context: SchedulingContext, decision: AllocationDecision
    ) -> AllocationDecision:
        placements, _ = self.repack(context, list(context.jobs.values()))
        weights = self._weights(context, placements)
        yields = weighted_fair_yields(
            placements, context.jobs, context.cluster, weights, self._loads
        )
        yields = weighted_improve_yield(
            placements, yields, context.jobs, context.cluster, weights, self._loads
        )
        decision.running = build_allocations(placements, yields, context.current_allocations())
        return decision
