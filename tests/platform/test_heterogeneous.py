"""Heterogeneous platforms: capacity-aware placement, yields, and packing."""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.context import JobView, SchedulingContext
from repro.core.engine import SimulationConfig, Simulator
from repro.core.invariants import InvariantCheckingObserver
from repro.core.job import JobSpec, JobState
from repro.packing import (
    PackingJob,
    cpu_capacity_yield_bound,
    first_fit_decreasing_pack,
    job_items,
    maximize_min_yield,
    mcb8_pack,
)
from repro.platform import NodeClass, NodeClassesPlatform
from repro.schedulers.dfrs.placement import greedy_place_job
from repro.schedulers.dfrs.yield_opt import fair_yields, improve_average_yield
from repro.schedulers.registry import create_scheduler


def _view(job_id=0, num_tasks=1, cpu_need=0.5, mem_requirement=0.4):
    return JobView(
        job_id=job_id,
        num_tasks=num_tasks,
        cpu_need=cpu_need,
        mem_requirement=mem_requirement,
        submit_time=0.0,
        state=JobState.PENDING,
        virtual_time=0.0,
        assignment=None,
        current_yield=0.0,
        last_assignment=None,
    )


class TestGreedyPlacement:
    def test_prefers_faster_node_at_equal_absolute_load(self):
        cluster = Cluster(2, cpu_capacities=(0.5, 2.0))
        usage = cluster.usage()
        # Same absolute load on both nodes; the fast node's *normalised*
        # load is 4x lower, so the next task goes there.
        usage.add_task(0, 0.25, 0.1, 0.0, check=False)
        usage.add_task(1, 0.25, 0.1, 0.0, check=False)
        nodes = greedy_place_job(_view(), usage)
        assert nodes == [1]

    def test_small_memory_node_refuses_big_tasks(self):
        cluster = Cluster(2, mem_capacities=(0.25, 1.0))
        usage = cluster.usage()
        nodes = greedy_place_job(_view(mem_requirement=0.5), usage)
        assert nodes == [1]
        # A second wide job that only fits the big node fails once it is full.
        assert greedy_place_job(_view(job_id=1, num_tasks=3, mem_requirement=0.4),
                                usage) is None

    def test_fair_yields_respect_slow_nodes(self):
        cluster = Cluster(2, cpu_capacities=(0.5, 1.0))
        placements = {0: (0,), 1: (1,)}
        jobs = {0: _view(0, cpu_need=1.0), 1: _view(1, cpu_need=1.0)}
        yields = fair_yields(placements, jobs, cluster)
        # Node 0 runs at half speed: the common fair yield is capped by it.
        assert yields[0] == pytest.approx(0.5)
        improved = improve_average_yield(placements, yields, jobs, cluster)
        # The improvement step can raise the fast node's job back to 1.0.
        assert improved[1] == pytest.approx(1.0)
        assert improved[0] == pytest.approx(0.5)


class TestCapacityAwarePacking:
    def test_mcb8_uses_big_bins(self):
        # Two 0.8-memory items cannot share a unit bin, but both fit one
        # double-memory bin.
        items = job_items(0, 2, cpu=0.2, memory=0.8)
        unit = mcb8_pack(items, 2)
        assert unit.success and unit.bins_used == 2
        het = mcb8_pack(items, 2, capacities=((1.0, 2.0), (1.0, 1.0)))
        assert het.success and het.bins_used == 1
        assert het.assignments[0] == (0, 0)

    def test_zero_capacity_bins_are_skipped(self):
        items = job_items(0, 2, cpu=0.3, memory=0.3)
        result = mcb8_pack(
            items, 3, capacities=((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
        )
        assert result.success
        assert all(node != 0 for nodes in result.assignments.values() for node in nodes)

    def test_infeasible_when_only_dead_bins(self):
        items = job_items(0, 1, cpu=0.3, memory=0.3)
        result = mcb8_pack(items, 2, capacities=((0.0, 0.0), (0.0, 0.0)))
        assert not result.success

    def test_first_fit_opens_past_small_bins(self):
        result = first_fit_decreasing_pack(
            [PackingJob(0, 1, 1.0, 0.9)], [0.9], 2, ((0.5, 0.5), (1.0, 1.0))
        )
        assert result.success
        assert result.assignments[0] == (1,)

    def test_maximize_min_yield_exploits_fast_nodes(self):
        jobs = [PackingJob(job_id=i, num_tasks=1, cpu_need=1.0,
                           mem_requirement=0.3) for i in range(4)]
        # Four full-need jobs on two double-speed nodes: yield 1.0 feasible.
        result = maximize_min_yield(
            jobs, 2, capacities=((2.0, 1.0), (2.0, 1.0))
        )
        assert result.success
        assert result.yield_value == pytest.approx(1.0)
        # On two unit nodes the same jobs are capped near yield 0.5.
        unit = maximize_min_yield(jobs, 2)
        assert unit.success
        assert unit.yield_value <= 0.51

    def test_pairing_bound_stays_necessary_on_big_nodes(self):
        # Four 0.6-memory tasks pack onto one 4x-memory node; the pairing
        # bound must not declare that infeasible (False proves *no* packing
        # exists — the bound has to stay a necessary condition).
        from repro.packing import infeasibility_reasons, memory_feasible

        jobs = [PackingJob(job_id=1, num_tasks=4, cpu_need=0.1,
                           mem_requirement=0.6)]
        capacities = ((1.0, 4.0), (1.0, 0.4))
        assert memory_feasible(jobs, 2, capacities=capacities)
        packed = mcb8_pack(
            [item for job in jobs for item in job.items(0.1)],
            2, capacities=capacities,
        )
        assert packed.success
        # And it still fires when big tasks genuinely cannot all be hosted.
        wide = [PackingJob(job_id=1, num_tasks=5, cpu_need=0.1,
                           mem_requirement=0.9)]
        reasons = infeasibility_reasons(wide, 2, capacities=capacities)
        assert "pairing" in reasons or "volume" in reasons

    def test_capacity_bound_sums_capacities(self):
        jobs = [PackingJob(job_id=0, num_tasks=4, cpu_need=1.0,
                           mem_requirement=0.1)]
        assert cpu_capacity_yield_bound(jobs, 2) == pytest.approx(0.5)
        assert cpu_capacity_yield_bound(
            jobs, 2, capacities=((2.0, 1.0), (2.0, 1.0))
        ) == pytest.approx(1.0)


class TestPackingCapacitiesFromContext:
    def test_context_fast_path_is_none(self):
        context = SchedulingContext(time=0.0, cluster=Cluster(4), jobs={})
        assert context.packing_capacities() is None

    def test_down_nodes_become_zero_capacity(self):
        context = SchedulingContext(
            time=0.0, cluster=Cluster(3), jobs={}, down_nodes=frozenset({1})
        )
        assert context.packing_capacities() == (
            (1.0, 1.0), (0.0, 0.0), (1.0, 1.0)
        )

    def test_heterogeneous_capacities_surface(self):
        cluster = Cluster(2, cpu_capacities=(2.0, 1.0), mem_capacities=(1.0, 0.5))
        context = SchedulingContext(time=0.0, cluster=cluster, jobs={})
        assert context.packing_capacities() == ((2.0, 1.0), (1.0, 0.5))


class TestHeterogeneousSimulations:
    """Every DFRS algorithm family end-to-end on a skewed platform."""

    ALGORITHMS = (
        "greedy",
        "greedy-pmtn",
        "greedy-pmtn-migr",
        "dynmcb8",
        "dynmcb8-per-600",
        "dynmcb8-asap-per-600",
        "dynmcb8-stretch-per-600",
    )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_runs_clean_under_invariants(self, algorithm):
        platform = NodeClassesPlatform(
            classes=(
                NodeClass("fast", 4, cpu=2.0, memory=1.0),
                NodeClass("standard", 8, cpu=1.0, memory=1.0),
                NodeClass("small", 4, cpu=0.5, memory=0.5),
            )
        )
        cluster = platform.build_cluster()
        from repro.traces.lublin import LublinWorkloadGenerator

        workload = LublinWorkloadGenerator(cluster).generate(40, seed=2010)
        checker = InvariantCheckingObserver()
        simulator = Simulator(
            cluster, create_scheduler(algorithm), SimulationConfig(),
            observers=[checker],
        )
        result = simulator.run(workload.jobs)
        assert result.num_jobs == 40
        assert checker.checked_events > 0

    def test_fast_nodes_finish_work_sooner(self):
        # Two identical full-need jobs: a platform whose nodes are twice as
        # fast in aggregate hosts both at full yield, halving the makespan
        # versus one unit node forcing them to share.
        specs = [
            JobSpec(0, 0.0, 1, 1.0, 0.4, 1000.0),
            JobSpec(1, 0.0, 1, 1.0, 0.4, 1000.0),
        ]
        slow = Simulator(Cluster(1), create_scheduler("dynmcb8"), SimulationConfig())
        slow_result = slow.run(specs)
        fast_cluster = NodeClassesPlatform(
            classes=(NodeClass("fast", 1, cpu=2.0),)
        ).build_cluster()
        fast = Simulator(fast_cluster, create_scheduler("dynmcb8"), SimulationConfig())
        fast_result = fast.run(specs)
        assert fast_result.makespan == pytest.approx(1000.0)
        assert slow_result.makespan == pytest.approx(2000.0, rel=0.05)
