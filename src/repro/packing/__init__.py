"""Vector-packing heuristics (MCB8 and baselines) and DFRS binary searches."""

from .bounds import (
    cpu_capacity_yield_bound,
    cpu_volume_exceeded,
    infeasibility_reasons,
    memory_feasible,
    memory_feasible_prefixes,
    memory_lower_bound_bins,
    total_cpu_need,
    total_memory_requirement,
)
from .first_fit import (
    best_fit_decreasing_pack,
    first_fit_decreasing_pack,
    worst_fit_decreasing_pack,
)
from .item import PackingItem, PackingJob, PackingResult, job_items
from .mcb8 import mcb8_pack
from .variants import PACKER_NAMES, get_packer, mcb_family_pack
from .yield_search import (
    YIELD_SEARCH_ACCURACY,
    StretchSearchResult,
    YieldSearchResult,
    maximize_min_yield,
    minimize_estimated_stretch,
    stretch_target_yields,
)

__all__ = [
    "cpu_capacity_yield_bound",
    "cpu_volume_exceeded",
    "infeasibility_reasons",
    "memory_feasible",
    "memory_feasible_prefixes",
    "memory_lower_bound_bins",
    "total_cpu_need",
    "total_memory_requirement",
    "best_fit_decreasing_pack",
    "first_fit_decreasing_pack",
    "worst_fit_decreasing_pack",
    "PackingItem",
    "PackingResult",
    "job_items",
    "mcb8_pack",
    "PACKER_NAMES",
    "get_packer",
    "mcb_family_pack",
    "YIELD_SEARCH_ACCURACY",
    "PackingJob",
    "StretchSearchResult",
    "YieldSearchResult",
    "maximize_min_yield",
    "minimize_estimated_stretch",
    "stretch_target_yields",
]
