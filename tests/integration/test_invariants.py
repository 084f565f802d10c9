"""Cross-cutting invariant tests over randomized workloads.

The engine validates every scheduler decision against node capacities at
every event, so simply running many randomized workloads under every DFRS
algorithm is a strong invariant check: any memory or CPU oversubscription,
arity mistake, or allocation to a finished job raises immediately.  On top of
that these tests assert conservation properties of the results themselves.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.campaign.executor import run_algorithm
from repro.schedulers.registry import PAPER_ALGORITHMS
from repro.traces import (
    LublinWorkloadGenerator,
    MemoryRequirementModel,
    scale_to_load,
)

ALGORITHMS_UNDER_TEST = [
    "greedy",
    "greedy-pmtn",
    "greedy-pmtn-migr",
    "dynmcb8",
    "dynmcb8-per-600",
    "dynmcb8-asap-per-600",
    "dynmcb8-stretch-per-600",
]


def _workload(seed: int, *, memory_heavy: bool = False, load: float = 0.8):
    cluster = Cluster(num_nodes=8, cores_per_node=4, node_memory_gb=8.0)
    memory_model = (
        MemoryRequirementModel(small_probability=0.2)
        if memory_heavy
        else MemoryRequirementModel()
    )
    generator = LublinWorkloadGenerator(cluster, memory_model=memory_model)
    base = generator.generate(25, seed=seed)
    return scale_to_load(base, load)


class TestRandomizedInvariants:
    @pytest.mark.parametrize("algorithm", ALGORITHMS_UNDER_TEST)
    @pytest.mark.parametrize("seed", [11, 12])
    def test_every_job_completes_exactly_once(self, algorithm, seed):
        workload = _workload(seed)
        result = run_algorithm(workload, algorithm, penalty_seconds=300.0)
        ids = [record.spec.job_id for record in result.jobs]
        assert sorted(ids) == sorted(spec.job_id for spec in workload.jobs)
        assert len(set(ids)) == len(ids)

    @pytest.mark.parametrize("algorithm", ALGORITHMS_UNDER_TEST)
    def test_turnaround_at_least_dedicated_time(self, algorithm):
        workload = _workload(21)
        result = run_algorithm(workload, algorithm, penalty_seconds=0.0)
        for record in result.jobs:
            assert record.turnaround_time >= record.spec.execution_time - 1e-6
            assert record.wait_time >= -1e-9

    @pytest.mark.parametrize("algorithm", ["greedy-pmtn", "dynmcb8-asap-per-600"])
    def test_memory_heavy_workloads_still_complete(self, algorithm):
        """Workloads dominated by near-full-node memory tasks force heavy use
        of the preemption machinery; everything must still terminate."""
        workload = _workload(31, memory_heavy=True, load=0.9)
        result = run_algorithm(workload, algorithm, penalty_seconds=300.0)
        assert result.num_jobs == workload.num_jobs

    @pytest.mark.parametrize("algorithm", ALGORITHMS_UNDER_TEST)
    def test_costs_consistent_with_job_records(self, algorithm):
        workload = _workload(41)
        result = run_algorithm(workload, algorithm, penalty_seconds=300.0)
        assert result.costs.preemption_count == sum(
            record.preemptions for record in result.jobs
        )
        assert result.costs.migration_count == sum(
            record.migrations for record in result.jobs
        )
        if result.costs.preemption_count == 0:
            assert result.costs.preemption_gb == pytest.approx(0.0)
        if result.costs.migration_count == 0:
            assert result.costs.migration_gb == pytest.approx(0.0)

    def test_penalty_never_speeds_up_a_run(self):
        """For every algorithm the 5-minute penalty can only hurt (or leave
        unchanged) the maximum stretch of a given instance."""
        workload = _workload(51)
        for algorithm in ("greedy-pmtn", "dynmcb8", "dynmcb8-asap-per-600"):
            free = run_algorithm(workload, algorithm, penalty_seconds=0.0)
            charged = run_algorithm(workload, algorithm, penalty_seconds=300.0)
            assert charged.max_stretch >= free.max_stretch - 1e-6

    def test_zero_penalty_costs_have_zero_bandwidth_rate_without_events(self):
        workload = _workload(61, load=0.2)
        result = run_algorithm(workload, "greedy", penalty_seconds=0.0)
        assert result.costs.preemption_count == 0
        assert result.preemption_bandwidth_gb_per_sec() == pytest.approx(0.0)
