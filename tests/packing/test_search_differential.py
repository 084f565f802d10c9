"""The pruning yield searches against the pack-every-probe searches they replaced.

``reference_search.py`` keeps the parent commit's two searches verbatim; every
test here requires the live ones, packing job records with a registered
packer, to return the *same* result object as the reference packing that
packer's item-route oracle (``ITEM_ROUTE`` of
``test_baseline_differential.py``).  Probe pruning is only an optimisation if
it is invisible, so beside equality a recording packer checks *soundness*
(each probe the live search did not pack fails on the packer it was kept
from) and *non-vacuity* (overloaded instances really are pruned).

The generators are the colliding ``_GRID``/``_NUDGES`` requirements and the
down / tiny / unit / large bin lists of ``test_mcb_differential.py``, plus CPU
needs above one node (where the ``min(1, need × Y)`` clamp is what the items
carry) and CPU totals within a few epsilons of the cluster's capacity.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.packing import (
    PACKER_NAMES,
    PackingJob,
    get_packer,
    maximize_min_yield,
    minimize_estimated_stretch,
)

from . import reference_search
from .test_baseline_differential import ITEM_ROUTE
from .test_mcb_differential import _NUDGES, bin_capacities, items_of, requirements

_CPU_NEEDS = [0.0, 0.05, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]


@st.composite
def packing_jobs(draw) -> List[PackingJob]:
    jobs = []
    for job_id in range(draw(st.integers(1, 8))):
        need = draw(st.sampled_from(_CPU_NEEDS)) + draw(st.sampled_from(_NUDGES))
        jobs.append(
            PackingJob(
                job_id=job_id,
                num_tasks=draw(st.integers(1, 6)),
                cpu_need=max(0.0, need),
                mem_requirement=draw(requirements()),
                flow_time=draw(st.floats(min_value=0.0, max_value=5000.0)),
                virtual_time=draw(st.floats(min_value=0.0, max_value=500.0)),
            )
        )
    return jobs


@st.composite
def overloaded_jobs(draw) -> Tuple[List[PackingJob], int]:
    """Light on memory, at least half a node more CPU need than the cluster has."""
    num_nodes = draw(st.integers(1, 6))
    jobs: List[PackingJob] = []
    while sum(job.num_tasks * job.cpu_need for job in jobs) < num_nodes + 0.5:
        jobs.append(
            PackingJob(
                job_id=len(jobs),
                num_tasks=draw(st.integers(1, 4)),
                cpu_need=draw(st.sampled_from([0.5, 0.75, 1.0])),
                mem_requirement=draw(st.sampled_from([0.0, 0.01, 0.05])),
                flow_time=draw(st.floats(min_value=0.0, max_value=5000.0)),
            )
        )
    return jobs, num_nodes


class _Recorder:
    """An item-route packer that remembers every probe it was asked to pack."""

    def __init__(self, packer) -> None:
        self.packer = packer
        self.calls: List[Tuple[tuple, bool]] = []

    def __call__(self, items, num_bins, **kwargs):
        result = self.packer(items, num_bins, **kwargs)
        self.calls.append((tuple(items), result.success))
        return result


class _JobRecorder(_Recorder):
    """The same for a packer of job records: a probe is recorded as its items."""

    def __call__(self, jobs, cpus, num_bins, capacities=None):
        result = self.packer(jobs, cpus, num_bins, capacities)
        self.calls.append((tuple(items_of(jobs, cpus)), result.success))
        return result


def _skipped(reference_calls, live_calls):
    """Probes of the reference sequence the live search never packed."""
    live = iter(live_calls)
    pending = next(live, None)
    skipped = []
    for call in reference_calls:
        if call == pending:
            pending = next(live, None)
        else:
            skipped.append(call)
    assert pending is None, "the live search packed a probe the reference never issued"
    return skipped


def _run_both(search, reference, jobs, name, *args, **kwargs):
    live_packer = _JobRecorder(get_packer(name))
    reference_packer = _Recorder(ITEM_ROUTE[name])
    actual = search(jobs, *args, packer=live_packer, **kwargs)
    expected = reference(jobs, *args, packer=reference_packer, **kwargs)
    assert actual == expected
    return _skipped(reference_packer.calls, live_packer.calls)


def _both_searches(jobs, name, num_nodes, capacities=None):
    """Skipped probes of the two live searches; results must equal the reference's."""
    yield_skips = _run_both(
        maximize_min_yield,
        reference_search.maximize_min_yield,
        jobs,
        name,
        num_nodes,
        capacities=capacities,
    )
    stretch_skips = _run_both(
        minimize_estimated_stretch,
        reference_search.minimize_estimated_stretch,
        jobs,
        name,
        num_nodes,
        600.0,
        capacities=capacities,
    )
    return yield_skips, stretch_skips


class TestSearchesMatchTheReference:
    @pytest.mark.parametrize("name", PACKER_NAMES)
    @given(packing_jobs(), st.integers(1, 10), bin_capacities())
    def test_same_results_and_only_failing_probes_skipped(
        self, name, jobs, num_nodes, capacities
    ):
        if capacities is not None:
            num_nodes = len(capacities)
        for skipped in _both_searches(jobs, name, num_nodes, capacities):
            assert not any(success for _, success in skipped)

    @given(overloaded_jobs())
    def test_overload_is_pruned(self, instance):
        jobs, num_nodes = instance
        for skipped in _both_searches(jobs, "mcb8", num_nodes):
            assert skipped and not any(success for _, success in skipped)


class TestEpsilonEdge:
    @pytest.mark.parametrize("num_nodes", [1, 3, 16, 128])
    def test_demand_only_the_bin_tolerance_admits_is_not_pruned(self, num_nodes):
        # Every node holds 0.5 and 0.5 + 1e-9 of CPU: N x (1 + 1e-9) > N in
        # total, feasible only because each of the N bins grants its epsilon.
        jobs = [
            PackingJob(0, num_nodes, cpu_need=0.5, mem_requirement=0.1),
            PackingJob(1, num_nodes, cpu_need=0.5 + 1e-9, mem_requirement=0.1),
        ]
        assert sum(job.num_tasks * job.cpu_need for job in jobs) > num_nodes
        result = maximize_min_yield(jobs, num_nodes)
        assert result == reference_search.maximize_min_yield(jobs, num_nodes)
        assert result.success and result.yield_value == 1.0
        stretch = minimize_estimated_stretch(jobs, num_nodes, 600.0)
        assert stretch == reference_search.minimize_estimated_stretch(
            jobs, num_nodes, 600.0
        )
        assert stretch.success and stretch.target_stretch == 1.0
