"""Tests for the fair-yield rule and the average-yield improvement heuristic."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.core.cluster import CAPACITY_EPSILON, Cluster
from repro.core.job import MINIMUM_YIELD
from repro.schedulers.dfrs.yield_opt import (
    build_allocations,
    fair_yields,
    improve_average_yield,
)

from .conftest import view


class TestFairYields:
    def test_empty(self):
        cluster = Cluster(4)
        assert fair_yields({}, {}, cluster) == {}

    def test_underloaded_gives_full_yield(self):
        cluster = Cluster(4)
        jobs = {0: view(0, cpu=0.5), 1: view(1, cpu=0.25)}
        placements = {0: (0,), 1: (1,)}
        yields = fair_yields(placements, jobs, cluster)
        assert yields == {0: 1.0, 1: 1.0}

    def test_overloaded_node_shares_equally(self):
        cluster = Cluster(4)
        jobs = {0: view(0, cpu=1.0), 1: view(1, cpu=1.0)}
        placements = {0: (0,), 1: (0,)}
        yields = fair_yields(placements, jobs, cluster)
        assert yields[0] == pytest.approx(0.5)
        assert yields[1] == pytest.approx(0.5)

    def test_max_load_drives_everybody(self):
        """The paper's rule gives all jobs the same yield 1/max(1, Λ)."""
        cluster = Cluster(4)
        jobs = {0: view(0, cpu=1.0), 1: view(1, cpu=1.0), 2: view(2, cpu=0.1)}
        placements = {0: (0,), 1: (0,), 2: (1,)}
        yields = fair_yields(placements, jobs, cluster)
        assert yields[2] == pytest.approx(0.5)


class TestImproveAverageYield:
    def test_lightly_loaded_job_is_raised_to_one(self):
        cluster = Cluster(4)
        jobs = {0: view(0, cpu=1.0), 1: view(1, cpu=1.0), 2: view(2, cpu=0.4)}
        placements = {0: (0,), 1: (0,), 2: (1,)}
        yields = fair_yields(placements, jobs, cluster)
        improved = improve_average_yield(placements, yields, jobs, cluster)
        # Job 2 is alone on node 1 and can run at full speed.
        assert improved[2] == pytest.approx(1.0)
        # Jobs on the saturated node cannot be raised.
        assert improved[0] == pytest.approx(0.5)
        assert improved[1] == pytest.approx(0.5)

    def test_never_decreases_yields(self):
        cluster = Cluster(4)
        jobs = {i: view(i, cpu=0.5) for i in range(4)}
        placements = {0: (0,), 1: (0,), 2: (1,), 3: (1,)}
        yields = fair_yields(placements, jobs, cluster)
        improved = improve_average_yield(placements, yields, jobs, cluster)
        for job_id in yields:
            assert improved[job_id] >= yields[job_id] - 1e-12

    def test_partial_improvement_respects_capacity(self):
        cluster = Cluster(2)
        jobs = {0: view(0, cpu=1.0), 1: view(1, cpu=1.0), 2: view(2, cpu=1.0)}
        # Node 0 hosts jobs 0 and 1; node 1 hosts jobs 1 (second task) -- not
        # possible since job 1 has one task; instead: job 2 alone on node 1.
        placements = {0: (0,), 1: (0,), 2: (1,)}
        yields = {0: 0.5, 1: 0.5, 2: 0.5}
        improved = improve_average_yield(placements, yields, jobs, cluster)
        assert improved[2] == pytest.approx(1.0)
        node0_alloc = improved[0] + improved[1]
        assert node0_alloc <= 1.0 + 1e-6

    def test_smallest_total_need_first(self):
        """The job with the lowest total CPU need gets leftover CPU first."""
        cluster = Cluster(1)
        jobs = {0: view(0, cpu=0.7), 1: view(1, cpu=0.4)}
        placements = {0: (0,), 1: (0,)}
        yields = {0: 0.5, 1: 0.5}
        improved = improve_average_yield(placements, yields, jobs, cluster)
        # Job 1 (smallest total need, 0.4) is raised to 1.0 first; job 0 then
        # takes what is left of the node: 1 - 0.4 = 0.6 of CPU for a 0.7 need.
        assert improved[1] == pytest.approx(1.0)
        assert improved[0] == pytest.approx(0.6 / 0.7)

    def test_saturated_yields_come_back_at_once(self):
        """No placed job below ``1 - 1e-9``: the pass would raise nothing, so
        the copy is returned before any job view is read."""
        cluster = Cluster(2)
        placements = {0: (0,), 1: (0, 1)}
        yields = {0: 1.0, 1: 1.0 - 1e-9, 5: 0.2}  # job 5 is not placed
        improved = improve_average_yield(placements, yields, {}, cluster)
        assert improved == yields and improved is not yields
        # One ulp below the bar and the pass runs, as in the oracle.
        yields[1] = math.nextafter(1.0 - 1e-9, 0.0)
        jobs = {0: view(0, cpu=0.5), 1: view(1, tasks=2, cpu=0.25)}
        improved = improve_average_yield(placements, yields, jobs, cluster)
        assert improved == _reference_improve_average_yield(placements, yields, jobs, cluster)
        assert improved[1] > yields[1]

    @given(
        num_jobs=st.integers(min_value=1, max_value=6),
        cpu=st.floats(min_value=0.1, max_value=1.0),
        base_yield=st.floats(min_value=MINIMUM_YIELD, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_invariant_property(self, num_jobs, cpu, base_yield):
        cluster = Cluster(2)
        jobs = {i: view(i, cpu=cpu) for i in range(num_jobs)}
        placements = {i: (i % 2,) for i in range(num_jobs)}
        yields = {i: min(base_yield, 1.0 / max(1.0, num_jobs * cpu)) for i in range(num_jobs)}
        improved = improve_average_yield(placements, yields, jobs, cluster)
        per_node = {0: 0.0, 1: 0.0}
        for job_id, nodes in placements.items():
            per_node[nodes[0]] += improved[job_id] * cpu
        assert per_node[0] <= 1.0 + 1e-6
        assert per_node[1] <= 1.0 + 1e-6
        for job_id in jobs:
            assert improved[job_id] <= 1.0 + 1e-9


def _reference_improve_average_yield(placements, yields, jobs, cluster):
    """``improve_average_yield`` as it was before the single ordered pass,
    verbatim: rescan every job for the eligible minimum after each raise."""
    improved = dict(yields)
    if not placements:
        return improved

    allocated = np.zeros(cluster.num_nodes, dtype=float)
    capacity = cluster.cpu_capacity_vector()
    tasks_per_node = {}
    for job_id, nodes in placements.items():
        need = jobs[job_id].cpu_need
        counts = {}
        for node in nodes:
            counts[node] = counts.get(node, 0) + 1
        tasks_per_node[job_id] = counts
        for node, count in counts.items():
            allocated[node] += count * need * improved[job_id]

    while True:
        best_job = None
        best_need = float("inf")
        for job_id, nodes in placements.items():
            if improved[job_id] >= 1.0 - 1e-9:
                continue
            counts = tasks_per_node[job_id]
            # Every node hosting this job must have spare CPU capacity.
            if all(
                allocated[node] < capacity[node] - CAPACITY_EPSILON
                for node in counts
            ):
                total_need = jobs[job_id].total_cpu_need
                if total_need < best_need:
                    best_need = total_need
                    best_job = job_id
        if best_job is None:
            break
        counts = tasks_per_node[best_job]
        need = jobs[best_job].cpu_need
        # Largest yield increase that keeps every hosting node within capacity.
        delta = min(
            (capacity[node] - allocated[node]) / (count * need)
            for node, count in counts.items()
        )
        delta = min(delta, 1.0 - improved[best_job])
        if delta <= 1e-9:
            # Numerical corner: mark the job as saturated and continue.
            improved[best_job] = min(1.0, improved[best_job] + 1e-9)
            continue
        improved[best_job] += delta
        for node, count in counts.items():
            allocated[node] += count * need * delta
    return improved


@st.composite
def _placed_jobs(draw):
    """Random multi-task placements with few distinct needs (so equal
    ``total_cpu_need``s are common), on homogeneous or mixed-speed nodes."""
    num_nodes = draw(st.integers(min_value=1, max_value=5))
    cpu_capacities = draw(
        st.none()
        | st.lists(
            st.sampled_from([0.5, 1.0, 2.0]), min_size=num_nodes, max_size=num_nodes
        )
    )
    cluster = Cluster(num_nodes, cpu_capacities=cpu_capacities)
    jobs, placements = {}, {}
    job_ids = draw(
        st.lists(st.integers(min_value=0, max_value=40), max_size=9, unique=True)
    )
    for job_id in job_ids:  # unsorted ids: placement order != id order
        tasks = draw(st.integers(min_value=1, max_value=4))
        jobs[job_id] = view(
            job_id, tasks=tasks, cpu=draw(st.sampled_from([0.1, 0.2, 0.25, 0.4, 0.5, 1.0]))
        )
        placements[job_id] = tuple(
            draw(st.integers(min_value=0, max_value=num_nodes - 1)) for _ in range(tasks)
        )
    return cluster, jobs, placements


def _reference_fair_yields(placements, jobs, cluster):
    """``fair_yields`` as it stood while the loads were tallied in a numpy
    vector, one boxed scalar ``+=`` per task — kept verbatim as the oracle."""
    if not placements:
        return {}
    loads = np.zeros(cluster.num_nodes, dtype=float)
    for job_id, nodes in placements.items():
        need = jobs[job_id].cpu_need
        for node in nodes:
            loads[node] += need
    if cluster.cpu_capacities is not None:
        loads = loads / cluster.cpu_capacity_vector()
    max_load = float(loads.max()) if loads.size else 0.0
    value = 1.0 / max(1.0, max_load)
    value = min(1.0, max(MINIMUM_YIELD, value))
    return {job_id: value for job_id in placements}


class TestListTallyMatchesTheNumpyTally:
    @given(case=_placed_jobs())
    @settings(max_examples=300, deadline=None)
    def test_identical_fair_yields(self, case):
        cluster, jobs, placements = case
        live = fair_yields(placements, jobs, cluster)
        expected = _reference_fair_yields(placements, jobs, cluster)
        assert live == expected  # bit for bit, not approximately
        assert list(live) == list(expected)
        assert all(type(value) is float for value in live.values())


class TestSinglePassMatchesTheRepeatedScan:
    @given(case=_placed_jobs(), scale=st.sampled_from([1.0, 0.5, 0.999999999]))
    @settings(max_examples=300, deadline=None)
    def test_identical_yields_from_the_fair_start(self, case, scale):
        cluster, jobs, placements = case
        yields = {
            job_id: value * scale
            for job_id, value in fair_yields(placements, jobs, cluster).items()
        }
        expected = _reference_improve_average_yield(placements, yields, jobs, cluster)
        improved = improve_average_yield(placements, yields, jobs, cluster)
        assert improved == expected  # bit for bit, not approximately
        assert list(improved) == list(expected)

    def test_equal_needs_are_raised_in_placement_order(self):
        """Two jobs with the same total need share a node: the first placed wins."""
        cluster = Cluster(1)
        jobs = {7: view(7, cpu=0.8), 3: view(3, cpu=0.8)}
        placements = {7: (0,), 3: (0,)}
        yields = {7: 0.5, 3: 0.5}
        improved = improve_average_yield(placements, yields, jobs, cluster)
        assert improved == _reference_improve_average_yield(
            placements, yields, jobs, cluster
        )
        assert improved[7] > improved[3] == 0.5


class TestBuildAllocations:
    def test_round_trip(self):
        placements = {0: (0, 1), 1: (2,)}
        yields = {0: 0.4, 1: 1.0}
        allocations = build_allocations(placements, yields)
        assert allocations[0].nodes == (0, 1)
        assert allocations[0].yield_value == pytest.approx(0.4)
        assert allocations[1].yield_value == pytest.approx(1.0)
