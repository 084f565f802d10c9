"""Binary searches coupling the MCB8 packer to the DFRS objectives.

Fixing a yield ``Y`` turns fluid CPU *needs* into firm CPU *requirements*
(need × Y), which reduces minimum-yield maximization to a sequence of vector
packing feasibility tests (paper §III-B).  :func:`maximize_min_yield` finds
the largest feasible ``Y`` with the paper's 0.01 accuracy.

:func:`minimize_estimated_stretch` is the analogous search used by
DYNMCB8-STRETCH-PER: it looks for the smallest achievable maximum *estimated
stretch* at the next scheduling event, where the per-job yield needed to hit
a target stretch is derived from the job's flow time and virtual time.

Both searches probe through :func:`_probe`, which fails a probe without
packing it when :func:`repro.packing.bounds.cpu_volume_exceeded` proves no
packer could succeed.  The probe *sequence* is untouched, so results are the
same as packing every probe, for every packer that honours bin capacities.
Each search reads ``assignments`` of the probe it returns and of no other,
so MCB8 turns only that probe's steps into per-job tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.job import MINIMUM_YIELD
from ..obs.telemetry import current_telemetry
from .bounds import cpu_volume_exceeded
from .item import PackingJob, PackingResult
from .mcb8 import BinCapacities, mcb8_pack_jobs

__all__ = [
    "PackingJob",
    "YieldSearchResult",
    "StretchSearchResult",
    "maximize_min_yield",
    "minimize_estimated_stretch",
    "stretch_target_yields",
    "YIELD_SEARCH_ACCURACY",
]

#: Accuracy threshold of the binary searches (paper §III-B).
YIELD_SEARCH_ACCURACY = 0.01

#: Upper end of the stretch search's target interval.
MAX_STRETCH_BOUND = 1e9

#: A packing routine: ``(jobs, cpus, num_bins, capacities) -> PackingResult``,
#: each task of ``jobs[k]`` needing ``cpus[k]`` (see
#: :mod:`repro.packing.variants`).
Packer = Callable[..., PackingResult]


@dataclass(frozen=True)
class YieldSearchResult:
    """Outcome of :func:`maximize_min_yield`."""

    success: bool
    yield_value: float
    assignments: Dict[int, Tuple[int, ...]]


@dataclass(frozen=True)
class StretchSearchResult:
    """Outcome of :func:`minimize_estimated_stretch`."""

    success: bool
    target_stretch: float
    yields: Dict[int, float]
    assignments: Dict[int, Tuple[int, ...]]


def _probe(
    jobs: Sequence[PackingJob],
    yields: Mapping[int, float],
    num_nodes: int,
    packer: Packer,
    capacities: BinCapacities,
) -> PackingResult:
    """Pack every job at ``yields[job_id]`` — unless arithmetic refuses first."""
    cpus: List[float] = []
    demand = 0.0
    tasks = 0
    for job in jobs:
        cpu = job.cpu_requirement(yields[job.job_id])
        cpus.append(cpu)
        demand += job.num_tasks * cpu
        tasks += job.num_tasks
    pruned = cpu_volume_exceeded(demand, tasks, num_nodes, capacities)
    telemetry = current_telemetry()
    if telemetry is not None:
        telemetry.count("packing.probes")
        telemetry.count("packing.probes_pruned", int(pruned))
    if pruned:
        return PackingResult.failure()
    return packer(jobs, cpus, num_nodes, capacities)


def maximize_min_yield(
    jobs: Sequence[PackingJob],
    num_nodes: int,
    *,
    packer: Packer = mcb8_pack_jobs,
    capacities: BinCapacities = None,
) -> YieldSearchResult:
    """Largest yield for which all jobs can be packed onto ``num_nodes``.

    ``capacities`` carries per-node ``(cpu, memory)`` bin capacities on
    heterogeneous or partially-failed platforms; ``None`` keeps the paper's
    unit bins.  Returns ``success=False`` when even the minimum yield (a
    memory-only packing problem) is infeasible, in which case the caller
    removes the lowest-priority job and retries (paper §III-B, DYNMCB8).
    """
    if not jobs:
        return YieldSearchResult(True, 1.0, {})

    job_ids = [job.job_id for job in jobs]

    def probe(yield_value: float) -> PackingResult:
        common = dict.fromkeys(job_ids, yield_value)
        return _probe(jobs, common, num_nodes, packer, capacities)

    baseline = probe(MINIMUM_YIELD)
    if not baseline.success:
        return YieldSearchResult(False, 0.0, {})

    # Try full yield first: under light load the search is then free.
    full = probe(1.0)
    if full.success:
        return YieldSearchResult(True, 1.0, full.assignments)

    # Keep the best probe, not its assignments: only the one returned is
    # read, so the job entry builds per-job tuples for it alone.
    low, high = MINIMUM_YIELD, 1.0
    best_yield, best = MINIMUM_YIELD, baseline
    while high - low > YIELD_SEARCH_ACCURACY:
        mid = (low + high) / 2.0
        attempt = probe(mid)
        if attempt.success:
            low = mid
            best_yield, best = mid, attempt
        else:
            high = mid
    return YieldSearchResult(True, best_yield, best.assignments)


def stretch_target_yields(
    jobs: Sequence[PackingJob],
    target_stretch: float,
    period: float,
) -> Dict[int, float]:
    """Per-job yields required to reach ``target_stretch`` at the next event.

    The estimated stretch of job *j* at the next scheduling event (one period
    ``T`` away) is ``(flow_j + T) / (vt_j + y_j * T)``; solving for the yield
    gives ``y_j = ((flow_j + T) / S - vt_j) / T``.  Negative values are
    clamped to the minimum yield ("so that no job consumes memory without
    making progress") and values above one are clamped to one.
    """
    if target_stretch <= 0:
        raise ValueError(f"target_stretch must be > 0, got {target_stretch}")
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")
    yields: Dict[int, float] = {}
    for job in jobs:
        needed = ((job.flow_time + period) / target_stretch - job.virtual_time) / period
        yields[job.job_id] = min(1.0, max(MINIMUM_YIELD, needed))
    return yields


def minimize_estimated_stretch(
    jobs: Sequence[PackingJob],
    num_nodes: int,
    period: float,
    *,
    packer: Packer = mcb8_pack_jobs,
    capacities: BinCapacities = None,
) -> StretchSearchResult:
    """Smallest feasible maximum estimated stretch at the next event.

    Feasibility of a target stretch ``S`` is tested by computing the per-job
    yields required to achieve ``S`` (see :func:`stretch_target_yields`) and
    packing the resulting CPU requirements with MCB8.  Returns
    ``success=False`` when no value of ``S`` admits a packing, in which case
    the caller evicts the lowest-priority job and retries.
    """
    if not jobs:
        return StretchSearchResult(True, 1.0, {}, {})

    def attempt(target: float) -> Optional[Tuple[Dict[int, float], PackingResult]]:
        yields = stretch_target_yields(jobs, target, period)
        result = _probe(jobs, yields, num_nodes, packer, capacities)
        return (yields, result) if result.success else None

    # The most permissive target: every job at the minimum yield.
    ceiling = attempt(MAX_STRETCH_BOUND)
    if ceiling is None:
        return StretchSearchResult(False, float("inf"), {}, {})

    # The most demanding target: stretch 1 (every job at full progress).
    floor = attempt(1.0)
    if floor is not None:
        yields, result = floor
        return StretchSearchResult(True, 1.0, yields, result.assignments)

    low, high = 1.0, MAX_STRETCH_BOUND
    best_yields, best_result = ceiling
    best_target = MAX_STRETCH_BOUND
    # Bisect in log-ish fashion: the feasible region is [some S*, inf), so a
    # plain bisection on the huge interval converges too slowly; first shrink
    # the upper bound geometrically, then bisect.
    probe = 2.0
    while probe < high:
        outcome = attempt(probe)
        if outcome is not None:
            high = probe
            best_yields, best_result = outcome
            best_target = probe
            break
        low = probe
        probe *= 4.0
    while high - low > YIELD_SEARCH_ACCURACY * max(1.0, low):
        mid = (low + high) / 2.0
        outcome = attempt(mid)
        if outcome is not None:
            high = mid
            best_yields, best_result = outcome
            best_target = mid
        else:
            low = mid
    return StretchSearchResult(
        True, best_target, best_yields, best_result.assignments
    )
