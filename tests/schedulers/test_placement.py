"""Tests for the greedy memory-constrained placement helper."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.cluster import CAPACITY_EPSILON, Cluster
from repro.core.job import JobState
from repro.schedulers.dfrs.placement import (
    can_place_job,
    greedy_place_job,
    usage_from_placements,
)

from ..core import reference_usage
from ..core.reference_usage import ReferenceUsage
from .conftest import view


class TestGreedyPlacement:
    def test_prefers_least_loaded_node(self):
        cluster = Cluster(3)
        usage = cluster.usage()
        usage.add_task(0, 1.0, 0.1, 0.0)
        usage.add_task(1, 0.5, 0.1, 0.0)
        placed = greedy_place_job(view(9, tasks=1, cpu=1.0, mem=0.1), usage)
        assert placed == [2]

    def test_respects_memory(self):
        cluster = Cluster(2)
        usage = cluster.usage()
        usage.add_task(0, 0.1, 0.95, 0.0)
        placed = greedy_place_job(view(9, tasks=1, cpu=1.0, mem=0.2), usage)
        assert placed == [1]

    def test_multi_task_spreads_by_load(self):
        cluster = Cluster(2)
        usage = cluster.usage()
        placed = greedy_place_job(view(9, tasks=2, cpu=1.0, mem=0.1), usage)
        assert sorted(placed) == [0, 1]

    def test_multiple_tasks_can_share_a_node_when_needed(self):
        cluster = Cluster(2)
        usage = cluster.usage()
        placed = greedy_place_job(view(9, tasks=4, cpu=0.25, mem=0.2), usage)
        assert len(placed) == 4
        assert set(placed) <= {0, 1}

    def test_failure_rolls_back(self):
        cluster = Cluster(2)
        usage = cluster.usage()
        usage.add_task(0, 0.1, 0.8, 0.0)
        usage.add_task(1, 0.1, 0.8, 0.0)
        # Needs two tasks of 30% memory each: only one node has room for one.
        placed = greedy_place_job(view(9, tasks=4, cpu=0.1, mem=0.3), usage)
        assert placed is None
        assert usage.task_count(0) == 1
        assert usage.task_count(1) == 1

    def test_can_place_does_not_mutate(self):
        cluster = Cluster(2)
        usage = cluster.usage()
        assert can_place_job(view(9, tasks=2, cpu=0.5, mem=0.5), usage)
        assert usage.busy_nodes() == 0

    def test_usage_from_placements(self):
        cluster = Cluster(3)
        jobs = {
            0: view(0, tasks=2, cpu=0.5, mem=0.3, state=JobState.RUNNING),
            1: view(1, tasks=1, cpu=1.0, mem=0.1, state=JobState.RUNNING),
        }
        usage = usage_from_placements({0: (0, 1), 1: (0,)}, jobs, cluster)
        assert usage.cpu_load(0) == pytest.approx(1.5)
        assert usage.memory_used(0) == pytest.approx(0.4)
        assert usage.task_count(1) == 1


@st.composite
def _loaded_usage_and_job(draw):
    """A partly filled (possibly heterogeneous, partly down) cluster and a job
    whose tasks often fill the remaining memory exactly."""
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    mem_capacities = draw(
        st.none()
        | st.lists(
            st.sampled_from([0.5, 1.0, 1.5]), min_size=num_nodes, max_size=num_nodes
        )
    )
    cluster = Cluster(num_nodes, mem_capacities=mem_capacities)
    down = draw(st.sets(st.integers(min_value=0, max_value=num_nodes - 1)))
    usage = cluster.usage(unavailable=down)
    fractions = st.sampled_from([0.0, 0.1, 0.2, 0.25, 1.0 / 3.0, 0.5, 1.0])
    for node in range(num_nodes):
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            usage.add_task(
                node, draw(st.sampled_from([0.25, 0.5, 1.0])), draw(fractions), 0.0,
                check=False,
            )
    job = view(
        9,
        tasks=draw(st.integers(min_value=1, max_value=12)),
        cpu=draw(st.sampled_from([0.25, 0.5, 1.0])),
        mem=draw(fractions),
    )
    return usage, job


class TestCanPlaceMatchesARealPlacement:
    @given(case=_loaded_usage_and_job())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_placing_on_a_copy_and_leaves_usage_alone(self, case):
        usage, job = case
        before = (
            usage.memory_vector(),
            usage.cpu_load_vector(),
            usage.cpu_alloc_vector(),
            [usage.task_count(node) for node in usage.cluster.node_ids],
            usage.unavailable_nodes(),
        )
        placed = greedy_place_job(job, usage.snapshot())
        assert can_place_job(job, usage) == (placed is not None)
        assert (usage.memory_vector() == before[0]).all()
        assert (usage.cpu_load_vector() == before[1]).all()
        assert (usage.cpu_alloc_vector() == before[2]).all()
        assert [usage.task_count(node) for node in usage.cluster.node_ids] == before[3]
        assert usage.unavailable_nodes() == before[4]

    def test_tasks_that_fill_the_nodes_exactly(self):
        usage = Cluster(3).usage(unavailable=(2,))
        # Two up nodes x ten 10% slots; 0.1 * 10 lands within epsilon of 1.
        assert can_place_job(view(9, tasks=20, cpu=0.1, mem=0.1), usage)
        assert not can_place_job(view(9, tasks=21, cpu=0.1, mem=0.1), usage)
        assert greedy_place_job(view(9, tasks=20, cpu=0.1, mem=0.1), usage.snapshot())
        assert greedy_place_job(view(9, tasks=21, cpu=0.1, mem=0.1), usage) is None

    def test_zero_memory_job_needs_one_available_node(self):
        job = view(9, tasks=50, cpu=0.1, mem=0.0)
        assert can_place_job(job, Cluster(2).usage(unavailable=(0,)))
        assert not can_place_job(job, Cluster(2).usage(unavailable=(0, 1)))


# --------------------------------------------------------------------------- #
# One mask per job against the per-task scan it replaced
# --------------------------------------------------------------------------- #
#: Few distinct loads, so equal keys (ties) are common.
_NEEDS = [0.0, 0.1, 0.25, 0.1 + 0.2, 0.3, 0.5, 1.0]
_MEMS = [0.0, 0.1, 0.2, 0.25, 1.0 / 3.0, 0.5, 1.0]
#: Distance from "exactly full" once one more task of the first job lands.
_EDGE_OFFSETS = [-2e-6, -CAPACITY_EPSILON, 0.0, 5e-7, CAPACITY_EPSILON, 2e-6]


@st.composite
def _placement_runs(draw):
    """A homogeneous or node-class cluster, a down set (sometimes every
    node), a pre-fill that leaves some nodes within ±epsilon of full for the
    first job, and a run of jobs — many of which cannot be placed."""
    num_nodes = draw(st.integers(min_value=1, max_value=10))
    classes = st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.0]), min_size=num_nodes, max_size=num_nodes
    )
    if draw(st.booleans()):
        cluster = Cluster(num_nodes)
    else:
        cluster = Cluster(num_nodes, cpu_capacities=draw(classes), mem_capacities=draw(classes))
    down = draw(
        st.sets(st.integers(min_value=0, max_value=num_nodes - 1), max_size=num_nodes // 2)
        | st.just(set(range(num_nodes)))
    )
    job = st.tuples(
        st.integers(min_value=1, max_value=2 * num_nodes + 2),
        st.sampled_from(_NEEDS),
        st.sampled_from(_MEMS),
    )
    jobs = draw(st.lists(job, min_size=1, max_size=6))
    prefill = []
    for node in range(num_nodes):
        if draw(st.booleans()):
            memory = cluster.mem_capacity(node) - jobs[0][2] + draw(st.sampled_from(_EDGE_OFFSETS))
        else:
            memory = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
        prefill.append((node, draw(st.sampled_from(_NEEDS)), max(0.0, memory)))
    return cluster, down, prefill, jobs


def _vectors(usage):
    return (
        usage.memory_vector().tobytes(),
        usage.cpu_alloc_vector().tobytes(),
        usage.cpu_load_vector().tobytes(),
        usage._tasks.tobytes(),
    )


class TestOneMaskPerJobMatchesThePerTaskScan:
    @given(run=_placement_runs())
    @example(  # a failed job leaves the (a + b) - b residue on both sides
        run=(Cluster(2), set(), [(0, 0.1, 0.6), (1, 0.1, 0.6)], [(3, 0.2, 0.3), (1, 0.25, 0.3)])
    )
    @example(  # node classes: node 0 is exactly full after one task, node 1 is faster
        run=(
            Cluster(3, cpu_capacities=[1.0, 2.0, 0.5], mem_capacities=[0.5, 1.0, 2.0]),
            {2},
            [(0, 0.0, 0.5 - 0.25 + CAPACITY_EPSILON), (1, 0.5, 0.5), (2, 0.0, 0.0)],
            [(2, 0.25, 0.25), (4, 0.5, 0.25)],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_same_nodes_and_same_bytes(self, run):
        """The returned nodes and all four vectors, byte for byte, after
        every job — rollback residues included."""
        cluster, down, prefill, jobs = run
        live, oracle = cluster.usage(down), ReferenceUsage(cluster, down)
        for usage in (live, oracle):
            for node, load, memory in prefill:
                usage.add_task(node, load, memory, 0.0, check=False)
        for job_id, (tasks, cpu, mem) in enumerate(jobs):
            job = view(job_id, tasks=tasks, cpu=cpu, mem=mem)
            expected = reference_usage.greedy_place_job(job, oracle)
            assert greedy_place_job(job, live) == expected
            assert _vectors(live) == _vectors(oracle)

    def test_the_examples_fail_and_fill_exactly(self):
        """Non-vacuity for the examples above."""
        usage = Cluster(2).usage()
        usage.add_task(0, 0.1, 0.6, 0.0)
        usage.add_task(1, 0.1, 0.6, 0.0)
        assert greedy_place_job(view(0, tasks=3, cpu=0.2, mem=0.3), usage) is None
        assert usage.cpu_load(0) == (0.1 + 0.2) - 0.2 != 0.1
        edge = Cluster(1, mem_capacities=[0.5]).usage()
        edge.add_task(0, 0.0, 0.5 - 0.25 + CAPACITY_EPSILON, 0.0)
        assert greedy_place_job(view(0, tasks=1, mem=0.25), edge.snapshot()) == [0]
        assert greedy_place_job(view(0, tasks=2, mem=0.25), edge) is None
