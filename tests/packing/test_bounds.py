"""Tests for the analytic packing bounds and feasibility checks."""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.packing import (
    PACKER_NAMES,
    PackingJob,
    cpu_capacity_yield_bound,
    cpu_volume_exceeded,
    get_packer,
    infeasibility_reasons,
    job_items,
    maximize_min_yield,
    memory_feasible,
    memory_feasible_prefixes,
    memory_lower_bound_bins,
    mcb8_pack,
    total_cpu_need,
    total_memory_requirement,
)
from repro.packing.bounds import BIN_EPSILON, _rounding_allowance, _volume_exceeded


def _job(job_id, tasks=1, cpu=0.5, mem=0.2):
    return PackingJob(job_id=job_id, num_tasks=tasks, cpu_need=cpu, mem_requirement=mem)


class TestTotals:
    def test_total_cpu_need(self):
        jobs = [_job(0, tasks=2, cpu=0.5), _job(1, tasks=3, cpu=1.0)]
        assert total_cpu_need(jobs) == pytest.approx(4.0)

    def test_total_memory(self):
        jobs = [_job(0, tasks=2, mem=0.25), _job(1, tasks=1, mem=0.5)]
        assert total_memory_requirement(jobs) == pytest.approx(1.0)

    def test_empty_totals_are_zero(self):
        assert total_cpu_need([]) == 0.0
        assert total_memory_requirement([]) == 0.0


class TestCpuCapacityYieldBound:
    def test_underloaded_cluster_allows_full_yield(self):
        jobs = [_job(0, tasks=2, cpu=0.5)]
        assert cpu_capacity_yield_bound(jobs, 4) == 1.0

    def test_overloaded_cluster_caps_yield(self):
        # 8 node-units of demand on 4 nodes -> yield at most 0.5.
        jobs = [_job(0, tasks=8, cpu=1.0)]
        assert cpu_capacity_yield_bound(jobs, 4) == pytest.approx(0.5)

    def test_empty_jobs_give_one(self):
        assert cpu_capacity_yield_bound([], 4) == 1.0

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ReproError):
            cpu_capacity_yield_bound([], 0)

    def test_bound_never_exceeded_by_mcb8_search(self):
        jobs = [
            _job(0, tasks=4, cpu=1.0, mem=0.1),
            _job(1, tasks=4, cpu=0.8, mem=0.2),
            _job(2, tasks=2, cpu=0.6, mem=0.3),
        ]
        num_nodes = 3
        bound = cpu_capacity_yield_bound(jobs, num_nodes)
        result = maximize_min_yield(jobs, num_nodes)
        assert result.success
        assert result.yield_value <= bound + 0.01  # binary-search accuracy

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),
                st.floats(min_value=0.05, max_value=1.0),
                st.floats(min_value=0.05, max_value=0.5),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_respects_capacity_bound(self, raw_jobs, num_nodes):
        jobs = [
            _job(i, tasks=tasks, cpu=cpu, mem=mem)
            for i, (tasks, cpu, mem) in enumerate(raw_jobs)
        ]
        bound = cpu_capacity_yield_bound(jobs, num_nodes)
        result = maximize_min_yield(jobs, num_nodes)
        if result.success:
            assert result.yield_value <= bound + 0.011


class TestMemoryLowerBound:
    def test_empty_items(self):
        assert memory_lower_bound_bins([]) == 0

    def test_volume_bound(self):
        items = job_items(0, 4, cpu=0.1, memory=0.6)
        # 2.4 node-units of memory -> at least 3 bins; also 4 items > 0.5.
        assert memory_lower_bound_bins(items) == 4

    def test_pairing_bound_dominates(self):
        items = job_items(0, 3, cpu=0.1, memory=0.51)
        assert memory_lower_bound_bins(items) == 3

    def test_small_items_use_volume(self):
        items = job_items(0, 10, cpu=0.1, memory=0.3)
        assert memory_lower_bound_bins(items) == 3

    def test_bound_is_consistent_with_mcb8(self):
        items = job_items(0, 6, cpu=0.2, memory=0.4) + job_items(1, 3, cpu=0.3, memory=0.7)
        bound = memory_lower_bound_bins(items)
        result = mcb8_pack(items, 64)
        assert result.success
        assert result.bins_used >= bound


class TestFeasibility:
    def test_feasible_case(self):
        jobs = [_job(0, tasks=2, mem=0.4), _job(1, tasks=2, mem=0.4)]
        assert memory_feasible(jobs, 2)
        assert infeasibility_reasons(jobs, 2) == {}

    def test_volume_violation_detected(self):
        jobs = [_job(0, tasks=10, mem=0.9)]
        reasons = infeasibility_reasons(jobs, 4)
        assert "volume" in reasons
        assert not memory_feasible(jobs, 4)

    def test_pairing_violation_detected(self):
        jobs = [_job(0, tasks=5, mem=0.6)]
        reasons = infeasibility_reasons(jobs, 4)
        assert "pairing" in reasons

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ReproError):
            infeasibility_reasons([], 0)

    def test_infeasible_jobs_fail_the_search_too(self):
        jobs = [_job(0, tasks=6, cpu=0.1, mem=0.9)]
        assert not memory_feasible(jobs, 4)
        result = maximize_min_yield(jobs, 4)
        assert not result.success

    def test_feasibility_is_necessary_not_sufficient(self):
        # A job set can pass the necessary checks yet still be unpackable;
        # the check must never claim infeasibility for a packable set.
        jobs = [_job(i, tasks=1, cpu=0.5, mem=0.45) for i in range(8)]
        assert memory_feasible(jobs, 4)
        assert maximize_min_yield(jobs, 4).success


class TestBoundsAreProofsAgainstTheBinTolerance:
    """Every bin accepts capacity + epsilon, so n bins accept n epsilons."""

    def test_four_just_over_half_tasks_pack_on_two_nodes(self):
        jobs = [_job(i, mem=0.5 + 4e-10) for i in range(4)]
        result = maximize_min_yield(jobs, 2)
        assert result.success and result.yield_value == 1.0
        assert memory_feasible(jobs, 2)
        items = [item for job in jobs for item in job.items(1.0)]
        assert memory_lower_bound_bins(items) <= mcb8_pack(items, 2).bins_used

    def test_clear_violations_are_still_reported(self):
        assert "volume" in infeasibility_reasons([_job(0, tasks=5, mem=0.45)], 2)
        wide = [(1.0, 2.0), (1.0, 1.0)]
        assert "pairing" in infeasibility_reasons(
            [_job(0, tasks=4, mem=0.9)], 2, capacities=wide
        )
        assert memory_feasible([_job(0, tasks=3, mem=0.9)], 2, capacities=wide)

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.sampled_from([0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0]),
                st.sampled_from([0.0, 2.5e-10, 4e-10, 5e-10, 1e-9, -4e-10]),
            ),
            min_size=1,
            max_size=6,
        ),
        st.one_of(
            st.integers(1, 6).map(lambda n: (n, None)),
            st.lists(
                st.sampled_from([(1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (1.0, 2.0)]),
                min_size=1,
                max_size=5,
            ).map(lambda caps: (len(caps), caps)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_packer_succeeding_implies_memory_feasible(self, shapes, platform):
        num_nodes, capacities = platform
        jobs = [
            _job(job_id, tasks=tasks, cpu=0.1, mem=min(1.0, mem + nudge))
            for job_id, (tasks, mem, nudge) in enumerate(shapes)
        ]
        kwargs = {} if capacities is None else {"capacities": capacities}
        items = [item for job in jobs for item in job.items(0.01)]
        cpus = [job.cpu_requirement(0.01) for job in jobs]
        for name in PACKER_NAMES:
            result = get_packer(name)(jobs, cpus, num_nodes, capacities)
            if result.success:
                assert memory_feasible(jobs, num_nodes, **kwargs), name
                if capacities is None:
                    assert memory_lower_bound_bins(items) <= result.bins_used, name

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.sampled_from([0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 1.5]),
                st.sampled_from([0.0, 2.5e-10, 4e-10, 5e-10, 1e-9, -4e-10]),
            ),
            min_size=1,
            max_size=6,
        ),
        st.one_of(
            st.integers(1, 6).map(lambda n: (n, None)),
            st.lists(
                st.sampled_from([(0.0, 0.0), (0.05, 1.0), (0.5, 1.0), (1.0, 1.0), (2.0, 1.0)]),
                min_size=1,
                max_size=5,
            ).map(lambda caps: (len(caps), caps)),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_cpu_volume_exceeded_implies_every_packer_fails(self, shapes, platform):
        num_nodes, capacities = platform
        jobs = [
            _job(job_id, tasks=tasks, cpu=cpu + nudge, mem=0.01)
            for job_id, (tasks, cpu, nudge) in enumerate(shapes)
        ]
        cpus = [job.cpu_requirement(1.0) for job in jobs]
        tasks = sum(job.num_tasks for job in jobs)
        demand = sum(job.num_tasks * min(1.0, job.cpu_need) for job in jobs)
        if cpu_volume_exceeded(demand, tasks, num_nodes, capacities):
            for name in PACKER_NAMES:
                assert not get_packer(name)(jobs, cpus, num_nodes, capacities).success, name

    def test_cpu_volume_limit_is_the_padded_capacity_exactly(self):
        # 3 nodes, 7 tasks: the limit itself still fits (strict comparison),
        # the next float above it is refused; down nodes keep their epsilon.
        limit = (3.0 + 3 * BIN_EPSILON) * _rounding_allowance(7 + 3)
        assert limit > 3.0 + 3 * BIN_EPSILON > 3.0 + BIN_EPSILON
        assert not cpu_volume_exceeded(limit, 7, 3)
        assert cpu_volume_exceeded(math.nextafter(limit, math.inf), 7, 3)
        down = [(0.0, 0.0), (2.0, 1.0), (1.0, 1.0)]
        assert not cpu_volume_exceeded(limit, 7, 3, down)
        assert cpu_volume_exceeded(math.nextafter(limit, math.inf), 7, 3, down)

    def test_the_capacity_yield_bound_is_a_ratio_not_a_proof(self):
        # Two nodes each holding 0.5 and 0.5 + 1e-9: the unpadded ratio says
        # "below 1", the packers (rightly) reach 1 through the bin tolerance.
        jobs = [_job(0, tasks=2, cpu=0.5, mem=0.1), _job(1, tasks=2, cpu=0.5 + 1e-9, mem=0.1)]
        assert cpu_capacity_yield_bound(jobs, 2) < 1.0
        assert maximize_min_yield(jobs, 2).yield_value == 1.0
        assert not cpu_volume_exceeded(total_cpu_need(jobs), 4, 2)


#: Memory requirements around the pairing threshold (0.5 + 1e-9), the unit
#: node, and oversized for unit nodes; 2.5 is oversized for every platform.
_HALF = 0.5 + 1e-9
_PREFIX_MEMORIES = [
    0.0, 0.125, 0.25, 0.4, 0.5 - 1e-9, 0.5, _HALF, math.nextafter(_HALF, math.inf),
    0.5 + 2e-9, 0.6, 0.75, 1.0, 1.0 + 1e-9, 1.0 + 2e-9, 1.5, 2.5,
]


@st.composite
def prefix_instances(draw):
    """Jobs and a platform; sometimes a last job fills the memory volume to
    within a few ulps of the padded limit."""
    if draw(st.booleans()):
        num_nodes, capacities = draw(st.integers(1, 8)), None
        mem_caps = [1.0] * num_nodes
    else:
        capacities = draw(st.lists(
            st.sampled_from([(0.0, 0.0), (1.0, 0.5), (1.0, 1.0), (2.0, 2.0), (1.0, 0.75)]),
            min_size=1, max_size=8,
        ))
        num_nodes, mem_caps = len(capacities), [memory for _, memory in capacities]
    jobs = [
        PackingJob(job_id, draw(st.integers(1, 6)), 0.5, draw(st.sampled_from(_PREFIX_MEMORIES)))
        for job_id in range(draw(st.integers(0, 10)))
    ]
    if draw(st.booleans()) and max(mem_caps) > 0.0:
        volume = sum(job.num_tasks * job.mem_requirement for job in jobs)
        tasks = sum(job.num_tasks for job in jobs)
        filler_tasks = draw(st.integers(1, 4)) * num_nodes
        accepted = sum(mem_caps) + num_nodes * BIN_EPSILON
        limit = accepted * _rounding_allowance(tasks + filler_tasks + num_nodes)
        memory = (limit - volume) / filler_tasks
        for _ in range(draw(st.integers(0, 3))):
            memory = math.nextafter(memory, draw(st.sampled_from([-math.inf, math.inf])))
        if 0.0 <= memory <= max(mem_caps):
            jobs.append(PackingJob(len(jobs), filler_tasks, 0.5, memory))
    return jobs, num_nodes, capacities


def _near_the_volume_limit(jobs, num_nodes, capacities) -> bool:
    """Whether a rounding-level change of the volume could flip its verdict."""
    mem_caps = [1.0] * num_nodes if capacities is None else [m for _, m in capacities]
    volume = math.fsum(job.num_tasks * job.mem_requirement for job in jobs)
    tasks = sum(job.num_tasks for job in jobs)
    slack = volume * (_rounding_allowance(tasks) - 1.0)
    total = sum(mem_caps)
    return _volume_exceeded(volume + slack, tasks, total, num_nodes) != _volume_exceeded(
        max(0.0, volume - slack), tasks, total, num_nodes
    )


class TestPrefixVerdicts:
    """``memory_feasible_prefixes`` against ``infeasibility_reasons`` of each prefix."""

    @given(prefix_instances())
    @settings(max_examples=600, deadline=None)
    def test_every_prefix_matches_the_reasons(self, instance):
        jobs, num_nodes, capacities = instance
        verdicts = memory_feasible_prefixes(jobs, num_nodes, capacities=capacities)
        assert len(verdicts) == len(jobs) + 1
        if capacities is None:
            # Unit bins skip the capacity list; listing them changes nothing.
            unit = [(1.0, 1.0)] * num_nodes
            assert verdicts == memory_feasible_prefixes(jobs, num_nodes, capacities=unit)
        for k, verdict in enumerate(verdicts):
            prefix = jobs[:k]
            if sys.version_info >= (3, 12) and _near_the_volume_limit(prefix, num_nodes, capacities):
                # ``sum()`` is compensated there, a running total is not.
                continue
            assert verdict == (not infeasibility_reasons(prefix, num_nodes, capacities=capacities)), k

    def test_each_condition_fails_the_prefixes_from_its_job_on(self):
        oversized = [_job(0, tasks=2, mem=0.25), _job(1, mem=0.6), _job(2, mem=1.5), _job(3)]
        assert memory_feasible_prefixes(oversized, 2) == [True, True, True, False, False]
        pairing = [_job(0, mem=0.75), _job(1, mem=0.6), _job(2, mem=0.0), _job(3, mem=0.6)]
        assert memory_feasible_prefixes(pairing, 2) == [True, True, True, True, False]
        volume = [_job(0, tasks=3, mem=0.5), _job(1, tasks=2, mem=0.5)]
        assert memory_feasible_prefixes(volume, 2) == [True, True, False]

    def test_a_smaller_big_requirement_raises_the_slots(self):
        # A 2.0-memory node hosts one 1.1 task, but three 0.6 tasks.
        wide = [(1.0, 2.0)]
        jobs = [_job(0, mem=1.1), _job(1, mem=0.6)]
        assert memory_feasible_prefixes(jobs, 1, capacities=wide) == [True, True, True]
        assert not infeasibility_reasons(jobs, 1, capacities=wide)

    def test_a_growing_allowance_alone_raises_the_slots(self):
        # Eight unit nodes and one 2.0 node; ``smallest`` sits just above
        # what a unit node grants, so the unit nodes count only once the big
        # tasks' rounding allowance has grown.  The requirement never changes.
        nodes = 8
        wide = [(1.0, 2.0)] + [(1.0, 1.0)] * nodes

        def unit_slots(smallest, big_tasks):
            return int((1.0 + BIN_EPSILON) / smallest * _rounding_allowance(big_tasks))

        smallest = 1.0 + BIN_EPSILON
        while unit_slots(smallest, 1):
            smallest = math.nextafter(smallest, math.inf)
        assert unit_slots(smallest, 1 + nodes) == 1
        jobs = [_job(0, mem=smallest), _job(1, tasks=nodes, mem=smallest)]
        verdicts = memory_feasible_prefixes(jobs, 1 + nodes, capacities=wide)
        assert verdicts == [True, True, True]
        assert not infeasibility_reasons(jobs, 1 + nodes, capacities=wide)

    def test_no_nodes_is_refused(self):
        with pytest.raises(ReproError):
            memory_feasible_prefixes([], 0)
