"""Tests for the fair-yield rule and the ordered pass that hands out leftover CPU.

The pass (``raise_yields_in_order``) serves three orders: smallest total CPU
need (``improve_average_yield``), heaviest weight (``weighted_improve_yield``)
and worst estimated stretch (DYNMCB8-STRETCH-PER).  Each order is held, bit
for bit, to the rescan it replaced, kept verbatim below as an oracle.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from repro.core.cluster import CAPACITY_EPSILON, Cluster
from repro.core.context import SchedulingContext
from repro.core.job import MINIMUM_YIELD
from repro.schedulers.dfrs.stretch_per import DynMcb8StretchPeriodicScheduler
from repro.schedulers.dfrs.weighted import (
    _check_weights,
    weighted_fair_yields,
    weighted_improve_yield,
)
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


def _reference_weighted_improve_yield(placements, yields, jobs, cluster, weights):
    """``weighted_improve_yield`` as it was before the single ordered pass,
    verbatim: rescan every job for the eligible maximum of ``(weight,
    -total_cpu_need)`` after each raise."""
    improved = dict(yields)
    if not placements:
        return improved
    _check_weights({job_id: weights[job_id] for job_id in placements})

    allocated = np.zeros(cluster.num_nodes, dtype=float)
    capacity = cluster.cpu_capacity_vector()
    counts = {}
    for job_id, nodes in placements.items():
        need = jobs[job_id].cpu_need
        per_node = {}
        for node in nodes:
            per_node[node] = per_node.get(node, 0) + 1
        counts[job_id] = per_node
        for node, count in per_node.items():
            allocated[node] += count * need * improved[job_id]

    while True:
        best_job = None
        best_key = (0.0, 0.0)
        for job_id, per_node in counts.items():
            if improved[job_id] >= 1.0 - 1e-9:
                continue
            if all(
                allocated[node] < capacity[node] - CAPACITY_EPSILON
                for node in per_node
            ):
                key = (weights[job_id], -jobs[job_id].total_cpu_need)
                if best_job is None or key > best_key:
                    best_key = key
                    best_job = job_id
        if best_job is None:
            break
        per_node = counts[best_job]
        need = jobs[best_job].cpu_need
        delta = min(
            (capacity[node] - allocated[node]) / (count * need)
            for node, count in per_node.items()
        )
        delta = min(delta, 1.0 - improved[best_job])
        if delta <= 1e-9:
            improved[best_job] = min(1.0, improved[best_job] + 1e-9)
            continue
        improved[best_job] += delta
        for node, count in per_node.items():
            allocated[node] += count * need * delta
    return improved


def _reference_improve_average_stretch(self, placements, yields, context):
    """``DynMcb8StretchPeriodicScheduler._improve_average_stretch`` as it was
    before the single ordered pass, verbatim (``self`` is the scheduler):
    rescan every job for the eligible worst estimated stretch, at its current
    yield, after each raise."""
    improved = dict(yields)
    if not placements:
        return improved
    cluster = context.cluster
    allocated = np.zeros(cluster.num_nodes, dtype=float)
    capacity = cluster.cpu_capacity_vector()
    tasks_per_node = {}
    for job_id, nodes in placements.items():
        need = context.jobs[job_id].cpu_need
        counts = {}
        for node in nodes:
            counts[node] = counts.get(node, 0) + 1
        tasks_per_node[job_id] = counts
        for node, count in counts.items():
            allocated[node] += count * need * improved[job_id]

    def estimated_stretch(job_id):
        view = context.jobs[job_id]
        denominator = view.virtual_time + improved[job_id] * self.period
        return (context.flow_time(view) + self.period) / max(denominator, 1e-9)

    while True:
        best_job = None
        worst_stretch = -1.0
        for job_id in placements:
            if improved[job_id] >= 1.0 - 1e-9:
                continue
            counts = tasks_per_node[job_id]
            if all(
                allocated[node] < capacity[node] - CAPACITY_EPSILON
                for node in counts
            ):
                stretch = estimated_stretch(job_id)
                if stretch > worst_stretch:
                    worst_stretch = stretch
                    best_job = job_id
        if best_job is None:
            break
        counts = tasks_per_node[best_job]
        need = context.jobs[best_job].cpu_need
        delta = min(
            (capacity[node] - allocated[node]) / (count * need)
            for node, count in counts.items()
        )
        delta = min(delta, 1.0 - improved[best_job])
        if delta <= 1e-9:
            improved[best_job] = min(1.0, improved[best_job] + 1e-9)
            continue
        improved[best_job] += delta
        for node, count in counts.items():
            allocated[node] += count * need * delta
    return improved


@st.composite
def _placed_jobs(draw):
    """Random multi-task placements with few distinct needs (so equal
    ``total_cpu_need``s are common), on homogeneous or mixed-speed nodes.
    Submit and virtual times come from small sets too, so equal estimated
    stretches are common."""
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
            job_id,
            tasks=tasks,
            cpu=draw(st.sampled_from([0.1, 0.2, 0.25, 0.4, 0.5, 1.0])),
            submit=draw(st.sampled_from([0.0, 100.0, 300.0])),
            vt=draw(st.sampled_from([0.0, 50.0, 200.0])),
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


def _assert_same_bits(improved, expected):
    """Same job order and the same doubles, compared by ``float.hex``."""
    assert list(improved) == list(expected)
    assert [float.hex(value) for value in improved.values()] == [
        float.hex(value) for value in expected.values()
    ]


def _drawn_start(data, yields):
    """Each job's starting yield scaled by a drawn factor: equal yields stay
    common, and the ``0.999999999`` factor lands just below saturation."""
    return {
        job_id: value * data.draw(st.sampled_from([1.0, 0.5, 0.999999999]))
        for job_id, value in yields.items()
    }


def _context(jobs, cluster, now):
    return SchedulingContext(time=now, cluster=cluster, jobs=jobs, submitted=[], completed=[])


class TestOrderedPassMatchesTheRescans:
    """``weighted_improve_yield`` and ``_improve_average_stretch`` are one
    ordered pass each, held to the rescans they replaced."""

    @given(case=_placed_jobs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_weighted_order(self, case, data):
        cluster, jobs, placements = case
        weights = {
            job_id: data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])) for job_id in placements
        }
        yields = _drawn_start(data, weighted_fair_yields(placements, jobs, cluster, weights))
        _assert_same_bits(
            weighted_improve_yield(placements, yields, jobs, cluster, weights),
            _reference_weighted_improve_yield(placements, yields, jobs, cluster, weights),
        )

    @given(
        case=_placed_jobs(),
        data=st.data(),
        now=st.sampled_from([0.0, 300.0, 900.0]),
        period=st.sampled_from([300.0, 600.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_stretch_order(self, case, data, now, period):
        cluster, jobs, placements = case
        yields = _drawn_start(data, fair_yields(placements, jobs, cluster))
        context = _context(jobs, cluster, now)
        scheduler = DynMcb8StretchPeriodicScheduler(period)
        _assert_same_bits(
            scheduler._improve_average_stretch(placements, yields, context),
            _reference_improve_average_stretch(scheduler, placements, yields, context),
        )

    def test_equal_weight_and_need_are_raised_in_placement_order(self):
        cluster = Cluster(1)
        jobs = {7: view(7, cpu=0.8), 3: view(3, cpu=0.8)}
        placements = {7: (0,), 3: (0,)}
        yields, weights = {7: 0.5, 3: 0.5}, {7: 2.0, 3: 2.0}
        improved = weighted_improve_yield(placements, yields, jobs, cluster, weights)
        _assert_same_bits(
            improved,
            _reference_weighted_improve_yield(placements, yields, jobs, cluster, weights),
        )
        assert improved[7] > improved[3] == 0.5

    def test_weight_outranks_need(self):
        """The heavier job goes first even with the larger total need, where
        the average-yield order would raise the other one."""
        cluster = Cluster(1)
        jobs = {0: view(0, cpu=0.4), 1: view(1, cpu=0.7)}
        placements = {0: (0,), 1: (0,)}
        yields, weights = {0: 0.5, 1: 0.5}, {0: 1.0, 1: 3.0}
        improved = weighted_improve_yield(placements, yields, jobs, cluster, weights)
        _assert_same_bits(
            improved,
            _reference_weighted_improve_yield(placements, yields, jobs, cluster, weights),
        )
        assert improved[1] == 1.0 > improved[0]
        plain = improve_average_yield(placements, yields, jobs, cluster)
        assert plain[0] == 1.0 > plain[1]

    def test_equal_weights_go_to_the_smaller_need(self):
        cluster = Cluster(1)
        jobs = {0: view(0, cpu=0.7), 1: view(1, cpu=0.4)}
        placements = {0: (0,), 1: (0,)}
        yields, weights = {0: 0.5, 1: 0.5}, {0: 2.0, 1: 2.0}
        improved = weighted_improve_yield(placements, yields, jobs, cluster, weights)
        _assert_same_bits(
            improved,
            _reference_weighted_improve_yield(placements, yields, jobs, cluster, weights),
        )
        assert improved[1] == 1.0 > improved[0]

    def test_equal_stretches_are_raised_in_placement_order(self):
        cluster = Cluster(1)
        jobs = {5: view(5, cpu=0.8, submit=100.0, vt=50.0), 2: view(2, cpu=0.8, submit=100.0, vt=50.0)}
        placements = {5: (0,), 2: (0,)}
        yields = {5: 0.5, 2: 0.5}
        context = _context(jobs, cluster, 900.0)
        scheduler = DynMcb8StretchPeriodicScheduler(600.0)
        improved = scheduler._improve_average_stretch(placements, yields, context)
        _assert_same_bits(
            improved, _reference_improve_average_stretch(scheduler, placements, yields, context)
        )
        assert improved[5] > improved[2] == 0.5

    def test_nudge_corner(self):
        """The one place the pass and the rescans can part: a node of CPU
        capacity 2000 where job 0 (need 1500) has 1.05e-6 of room, so its
        largest increase is 7e-10 and it takes the nudge branch.  A static
        key (the weight) keeps job 0 first, and both raise it step by step
        to saturation.  The stretch key reads job 0's yield: after one step
        the rescan finds job 1's estimated stretch the worse and gives it the
        room, while the pass steps job 0 to saturation first.  Job 1 gets the
        same room either way; only job 0's yield differs."""
        cluster = Cluster(1, cpu_capacities=[2000.0])
        start = 1.0 - 3e-9
        # Job 1's denominator vt + y T sits 3e-7 above job 0's, less than one
        # step of job 0 (1e-9 × 600): its stretch is the second worst until
        # job 0 takes a step.
        vt = 100.0 + start * 600.0 + 3e-7 - 0.5 * 600.0
        filler = 2000.0 - 1.05e-6 - (1500.0 * start + 0.5)
        jobs = {
            0: view(0, cpu=1500.0, vt=100.0),
            1: view(1, cpu=1.0, vt=vt),
            2: view(2, cpu=filler),
        }
        placements = {0: (0,), 1: (0,), 2: (0,)}
        yields = {0: start, 1: 0.5, 2: 1.0}
        room = 2000.0 - (1500.0 * start + 0.5 + filler)
        assert CAPACITY_EPSILON < room and room / 1500.0 <= 1e-9

        weights = {0: 3.0, 1: 1.0, 2: 1.0}
        weighted = weighted_improve_yield(placements, yields, jobs, cluster, weights)
        _assert_same_bits(
            weighted,
            _reference_weighted_improve_yield(placements, yields, jobs, cluster, weights),
        )
        assert weighted[0] >= 1.0 - 1e-9 and weighted[1] > 0.5

        context = _context(jobs, cluster, 1000.0)
        scheduler = DynMcb8StretchPeriodicScheduler(600.0)
        live = scheduler._improve_average_stretch(placements, yields, context)
        rescan = _reference_improve_average_stretch(scheduler, placements, yields, context)
        assert rescan[0] == start + 1e-9 < 1.0 - 1e-9 <= live[0]
        assert float.hex(live[1]) == float.hex(rescan[1]) and live[1] > 0.5
        assert live[2] == rescan[2] == 1.0


class TestBuildAllocations:
    def test_round_trip(self):
        placements = {0: (0, 1), 1: (2,)}
        yields = {0: 0.4, 1: 1.0}
        allocations = build_allocations(placements, yields)
        assert allocations[0].nodes == (0, 1)
        assert allocations[0].yield_value == pytest.approx(0.4)
        assert allocations[1].yield_value == pytest.approx(1.0)
