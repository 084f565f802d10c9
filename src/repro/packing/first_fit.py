"""First-fit and best-fit decreasing vector-packing baselines.

These are not part of the paper's algorithm suite; they exist to ablate the
MCB8 balance heuristic (see DESIGN.md §4).  Both treat the two resource
dimensions independently of each other when choosing a bin, which is exactly
the behaviour MCB8 was designed to improve upon.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..obs.telemetry import timed_phase
from .item import Bin, PackingItem, PackingResult
from .mcb8 import (
    BinCapacities,
    _check_capacities,
    _collect_assignments,
    _count_used_bins,
    _open_until_fits,
)

__all__ = ["first_fit_decreasing_pack", "best_fit_decreasing_pack"]


def _decreasing(items: Sequence[PackingItem]) -> List[PackingItem]:
    return sorted(
        items, key=lambda item: (-item.max_requirement, item.job_id, item.task_index)
    )


def _pack(
    items: Sequence[PackingItem],
    num_bins: int,
    choose_bin: Callable[[List[Bin], PackingItem], Optional[Bin]],
    capacities: BinCapacities = None,
) -> PackingResult:
    """The decreasing-order loop of the first-, best- and worst-fit baselines:
    ``choose_bin`` picks an open bin the item fits, or ``None`` to open one."""
    if not items:
        return PackingResult(success=True, assignments={}, bins_used=0)
    if num_bins <= 0:
        return PackingResult.failure()
    _check_capacities(capacities, num_bins)
    bins: List[Bin] = []
    for item in _decreasing(items):
        target = choose_bin(bins, item)
        if target is None:
            if capacities is None:
                # Unit bins: one fresh bin either hosts the item or nothing
                # ever will.
                if len(bins) >= num_bins:
                    return PackingResult.failure()
                target = Bin(len(bins))
                bins.append(target)
                if not target.fits(item):
                    return PackingResult.failure()
            else:
                target = _open_until_fits(bins, item, num_bins, capacities)
                if target is None:
                    return PackingResult.failure()
        target.add(item)
    assignments = _collect_assignments(bins)
    if assignments is None:
        return PackingResult.failure()
    return PackingResult(
        success=True, assignments=assignments, bins_used=_count_used_bins(bins)
    )


@timed_phase("packing.first_fit_decreasing")
def first_fit_decreasing_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    capacities: BinCapacities = None,
) -> PackingResult:
    """First-fit decreasing: place each item in the first bin where it fits."""

    def choose(bins: List[Bin], item: PackingItem) -> Optional[Bin]:
        for bin_ in bins:
            if bin_.fits(item):
                return bin_
        return None

    return _pack(items, num_bins, choose, capacities)


@timed_phase("packing.best_fit_decreasing")
def best_fit_decreasing_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    capacities: BinCapacities = None,
) -> PackingResult:
    """Best-fit decreasing: place each item in the fullest bin where it fits.

    "Fullest" is measured by the remaining capacity in the item's dominant
    dimension, which is the conventional generalisation of best-fit to vector
    packing.
    """

    def choose(bins: List[Bin], item: PackingItem) -> Optional[Bin]:
        best: Optional[Bin] = None
        best_slack = float("inf")
        for bin_ in bins:
            if not bin_.fits(item):
                continue
            slack = (
                bin_.cpu_free - item.cpu
                if item.cpu_dominant
                else bin_.memory_free - item.memory
            )
            if slack < best_slack:
                best_slack = slack
                best = bin_
        return best

    return _pack(items, num_bins, choose, capacities)
