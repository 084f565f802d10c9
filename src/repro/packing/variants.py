"""Alternative vector-packing heuristics and the packer registry.

The paper uses the two-resource MCB8 heuristic of Leinberger et al.; the
original MCB family differs in how items are ordered within each list (by
largest component for MCB8, by sum of components, by a single component, ...).
This module implements that family in a parameterised form, adds a
load-balancing worst-fit baseline, and exposes a registry used by the packing
ablation experiment and by scheduler construction (``dynmcb8`` can be asked to
pack with any registered heuristic).

Every packer shares the signature ``(items, num_bins) -> PackingResult`` of
:func:`repro.packing.mcb8.mcb8_pack`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError
from ..obs.telemetry import timed_phase
from .first_fit import _pack, best_fit_decreasing_pack, first_fit_decreasing_pack
from .item import Bin, PackingItem, PackingResult
from .mcb8 import BinCapacities, _max_requirement, _mcb_pack, mcb8_pack

__all__ = [
    "mcb_family_pack",
    "worst_fit_decreasing_pack",
    "PACKER_NAMES",
    "get_packer",
]

#: Ordering keys of the MCB family.  Each maps an item to a sort value; items
#: are considered in non-increasing order of that value.
_ORDERINGS: Dict[str, Callable[[PackingItem], float]] = {
    # MCB8: order by the largest of the two requirements (the paper's choice).
    "max": _max_requirement,
    # MCB6-style: order by the sum of the requirements.
    "sum": lambda item: item.cpu + item.memory,
    # Single-dimension orderings (MCB2/MCB4-style degenerate variants).
    "cpu": lambda item: item.cpu,
    "memory": lambda item: item.memory,
    # Order by the imbalance between the two requirements.
    "difference": lambda item: abs(item.cpu - item.memory),
}


@timed_phase("packing.mcb_family")
def mcb_family_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    ordering: str = "max",
    capacities: BinCapacities = None,
) -> PackingResult:
    """Multi-capacity balancing pack with a configurable item ordering.

    The same fill loop as :func:`repro.packing.mcb8.mcb8_pack` — split items
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
    return _mcb_pack(items, num_bins, _ORDERINGS[ordering], capacities)


@timed_phase("packing.worst_fit_decreasing")
def worst_fit_decreasing_pack(
    items: Sequence[PackingItem],
    num_bins: int,
    *,
    capacities: BinCapacities = None,
) -> PackingResult:
    """Worst-fit decreasing: place each item in the *emptiest* open bin.

    "Emptiest" is measured by the remaining capacity in the item's dominant
    dimension.  This load-balancing flavour spreads items across nodes, which
    tends to use more bins than MCB8 but keeps per-node contention low; it is
    included as an ablation endpoint, not as a recommended policy.
    """

    def choose(bins: List[Bin], item: PackingItem) -> Optional[Bin]:
        best: Optional[Bin] = None
        best_slack = -1.0
        for bin_ in bins:
            if not bin_.fits(item):
                continue
            slack = bin_.cpu_free if item.cpu_dominant else bin_.memory_free
            if slack > best_slack:
                best_slack = slack
                best = bin_
        return best

    return _pack(items, num_bins, choose, capacities)


#: Registry of named packers usable by the ablation experiments and by the
#: scheduler factory.  All share the ``(items, num_bins, *, capacities=None)
#: -> PackingResult`` signature (``capacities`` carries per-bin capacities on
#: heterogeneous platforms; None means the paper's unit bins).
_PACKERS: Dict[str, Callable[..., PackingResult]] = {
    "mcb8": mcb8_pack,
    "mcb-sum": lambda items, bins, **kw: mcb_family_pack(
        items, bins, ordering="sum", **kw
    ),
    "mcb-cpu": lambda items, bins, **kw: mcb_family_pack(
        items, bins, ordering="cpu", **kw
    ),
    "mcb-memory": lambda items, bins, **kw: mcb_family_pack(
        items, bins, ordering="memory", **kw
    ),
    "mcb-difference": lambda items, bins, **kw: mcb_family_pack(
        items, bins, ordering="difference", **kw
    ),
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
