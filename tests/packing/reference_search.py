"""The yield searches as they stood before probe pruning — test oracle.

Verbatim copies of the parent commit's ``maximize_min_yield`` (with
``_pack_at_yield``) and ``minimize_estimated_stretch`` (with its private
``attempt`` loop): every probe builds every item and calls the packer.
``test_search_differential.py`` requires the live searches to return the same
result on every generated instance, for every packer.  The result classes
and ``PackingJob`` are the live ones, so results compare with ``==``;
``stretch_target_yields`` is the parent's, with its ``min_yield`` option.  Do
not optimise or tidy this file: being slow and obviously right is its job.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.job import MINIMUM_YIELD
from repro.packing.item import PackingItem, PackingJob, PackingResult
from repro.packing.mcb8 import BinCapacities, mcb8_pack
from repro.packing.yield_search import (
    YIELD_SEARCH_ACCURACY,
    StretchSearchResult,
    YieldSearchResult,
)

Packer = Callable[..., PackingResult]


def stretch_target_yields(
    jobs: Sequence[PackingJob],
    target_stretch: float,
    period: float,
    *,
    min_yield: float = MINIMUM_YIELD,
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
        yields[job.job_id] = min(1.0, max(min_yield, needed))
    return yields


def _pack_at_yield(
    jobs: Sequence[PackingJob],
    yield_value: float,
    num_nodes: int,
    packer: Packer,
    capacities: BinCapacities = None,
) -> PackingResult:
    items: List[PackingItem] = []
    for job in jobs:
        items.extend(job.items(yield_value))
    if capacities is None:
        return packer(items, num_nodes)
    return packer(items, num_nodes, capacities=capacities)


def maximize_min_yield(
    jobs: Sequence[PackingJob],
    num_nodes: int,
    *,
    packer: Packer = mcb8_pack,
    accuracy: float = YIELD_SEARCH_ACCURACY,
    min_yield: float = MINIMUM_YIELD,
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

    baseline = _pack_at_yield(jobs, min_yield, num_nodes, packer, capacities)
    if not baseline.success:
        return YieldSearchResult(False, 0.0, {})

    # Try full yield first: under light load the search is then free.
    full = _pack_at_yield(jobs, 1.0, num_nodes, packer, capacities)
    if full.success:
        return YieldSearchResult(True, 1.0, full.assignments)

    low, high = min_yield, 1.0
    best_yield, best_assignments = min_yield, baseline.assignments
    while high - low > accuracy:
        mid = (low + high) / 2.0
        attempt = _pack_at_yield(jobs, mid, num_nodes, packer, capacities)
        if attempt.success:
            low = mid
            best_yield, best_assignments = mid, attempt.assignments
        else:
            high = mid
    return YieldSearchResult(True, best_yield, best_assignments)


def minimize_estimated_stretch(
    jobs: Sequence[PackingJob],
    num_nodes: int,
    period: float,
    *,
    packer: Packer = mcb8_pack,
    accuracy: float = YIELD_SEARCH_ACCURACY,
    min_yield: float = MINIMUM_YIELD,
    max_stretch_bound: float = 1e9,
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
        yields = stretch_target_yields(jobs, target, period, min_yield=min_yield)
        items: List[PackingItem] = []
        for job in jobs:
            items.extend(job.items(yields[job.job_id]))
        if capacities is None:
            result = packer(items, num_nodes)
        else:
            result = packer(items, num_nodes, capacities=capacities)
        if result.success:
            return yields, result
        return None

    # The most permissive target: every job at the minimum yield.
    ceiling = attempt(max_stretch_bound)
    if ceiling is None:
        return StretchSearchResult(False, float("inf"), {}, {})

    # The most demanding target: stretch 1 (every job at full progress).
    floor = attempt(1.0)
    if floor is not None:
        yields, result = floor
        return StretchSearchResult(True, 1.0, yields, result.assignments)

    low, high = 1.0, max_stretch_bound
    best_yields, best_result = ceiling
    best_target = max_stretch_bound
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
    while high - low > accuracy * max(1.0, low):
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
