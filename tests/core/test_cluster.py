"""Unit tests for :mod:`repro.core.cluster`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cluster import CAPACITY_EPSILON, Cluster, ClusterUsage
from repro.exceptions import ConfigurationError, InfeasibleAllocationError

from ..conftest import least_loaded


class TestCluster:
    def test_defaults(self):
        cluster = Cluster(num_nodes=128)
        assert cluster.cores_per_node == 4
        assert cluster.node_memory_gb == 8.0
        assert list(cluster.node_ids) == list(range(128))
        assert cluster.sequential_cpu_need() == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 0},
            {"num_nodes": -3},
            {"num_nodes": 4, "cores_per_node": 0},
            {"num_nodes": 4, "node_memory_gb": 0.0},
        ],
    )
    def test_invalid_cluster(self, kwargs):
        with pytest.raises(ConfigurationError):
            Cluster(**kwargs)


class TestClusterUsage:
    def test_add_and_remove_task(self, small_cluster):
        usage = small_cluster.usage()
        usage.add_task(0, cpu_need=0.5, mem_requirement=0.3, yield_value=0.8)
        assert usage.cpu_load(0) == pytest.approx(0.5)
        assert usage.cpu_allocated(0) == pytest.approx(0.4)
        assert usage.memory_used(0) == pytest.approx(0.3)
        assert usage.task_count(0) == 1
        assert usage.busy_nodes() == 1
        assert usage.idle_nodes() == small_cluster.num_nodes - 1
        usage.remove_task(0, 0.5, 0.3, 0.8)
        assert usage.cpu_load(0) == pytest.approx(0.0)
        assert usage.memory_used(0) == pytest.approx(0.0)
        assert usage.task_count(0) == 0

    def test_memory_capacity_enforced(self, small_cluster):
        usage = small_cluster.usage()
        usage.add_task(1, 0.1, 0.7, 1.0)
        with pytest.raises(InfeasibleAllocationError):
            usage.add_task(1, 0.1, 0.4, 1.0)

    def test_cpu_allocation_capacity_enforced(self, small_cluster):
        usage = small_cluster.usage()
        usage.add_task(2, 1.0, 0.1, 0.7)
        with pytest.raises(InfeasibleAllocationError):
            usage.add_task(2, 1.0, 0.1, 0.5)

    def test_cpu_load_may_exceed_capacity(self, small_cluster):
        """CPU *needs* can be oversubscribed as long as allocations are not."""
        usage = small_cluster.usage()
        usage.add_task(0, 1.0, 0.1, 0.4)
        usage.add_task(0, 1.0, 0.1, 0.4)
        assert usage.cpu_load(0) == pytest.approx(2.0)
        assert usage.cpu_allocated(0) == pytest.approx(0.8)
        assert usage.max_cpu_load() == pytest.approx(2.0)

    def test_add_job_rolls_back_on_failure(self, small_cluster):
        usage = small_cluster.usage()
        usage.add_task(0, 0.1, 0.9, 1.0)
        with pytest.raises(InfeasibleAllocationError):
            # Second task cannot fit on node 0 anymore.
            usage.add_job([1, 0], cpu_need=0.1, mem_requirement=0.5, yield_value=1.0)
        assert usage.memory_used(1) == pytest.approx(0.0)
        assert usage.task_count(1) == 0

    def test_least_loaded_fitting_breaks_ties_by_index(self, small_cluster):
        usage = small_cluster.usage()
        usage.add_task(3, 0.5, 0.1, 1.0)
        assert least_loaded(usage, 0.1) == 0
        usage.add_task(0, 0.5, 0.1, 1.0)
        assert least_loaded(usage, 0.1) == 1
        # The loaded nodes come last: 3 only once every other node is full.
        for node in (1, 2, 4, 5, 6, 7):
            usage.add_task(node, 0.1, 0.9, 0.0)
        assert least_loaded(usage, 0.2) == 0
        usage.add_task(0, 0.1, 0.8, 0.0)
        assert least_loaded(usage, 0.2) == 3

    def test_snapshot_is_independent(self, small_cluster):
        usage = small_cluster.usage()
        usage.add_task(0, 0.5, 0.5, 1.0)
        clone = usage.snapshot()
        clone.add_task(0, 0.1, 0.1, 1.0)
        assert usage.task_count(0) == 1
        assert clone.task_count(0) == 2

    def test_snapshot_shares_only_the_capacity_vectors(self):
        cluster = Cluster(3, cpu_capacities=(2.0, 1.0, 0.5), mem_capacities=(1.0, 0.5, 2.0))
        usage = cluster.usage(unavailable=(2,))
        usage.add_task(0, 0.5, 0.25, 1.0)
        clone = usage.snapshot()
        assert clone._cpu_cap is usage._cpu_cap and clone._mem_cap is usage._mem_cap
        # the four tallies and the down set are the clone's own
        clone.add_task(1, 0.25, 0.25, 1.0)
        clone.set_unavailable({0})
        usage.add_task(0, 0.25, 0.25, 1.0)
        assert [usage.task_count(node) for node in range(3)] == [2, 0, 0]
        assert [clone.task_count(node) for node in range(3)] == [1, 1, 0]
        assert usage.memory_vector().tolist() == [0.5, 0.0, 0.0]
        assert clone.memory_vector().tolist() == [0.25, 0.25, 0.0]
        assert usage.cpu_load_vector().tolist() == [0.75, 0.0, 0.0]
        assert clone.cpu_alloc_vector().tolist() == [0.5, 0.25, 0.0]
        assert usage.unavailable_nodes() == {2} and clone.unavailable_nodes() == {0}
        # ... and the clone checks against the node-class limits
        with pytest.raises(InfeasibleAllocationError, match="^node 1: memory 0.2500"):
            clone.add_task(1, 0.1, 0.3, 0.0)
        with pytest.raises(InfeasibleAllocationError, match="^node 0 is unavailable"):
            clone.add_task(0, 0.1, 0.1, 0.0)

    def test_remove_task_from_an_empty_node_refuses_and_debits_nothing(self):
        usage, untouched = Cluster(2).usage(), Cluster(2).usage()
        for each in (usage, untouched):
            each.add_task(1, 0.5, 0.3, 1.0)
        with pytest.raises(
            InfeasibleAllocationError, match="^node 0: removed more tasks than were placed$"
        ):
            usage.remove_task(0, 0.5, 0.3, 1.0)
        assert usage.memory_vector().tobytes() == untouched.memory_vector().tobytes()
        assert usage.cpu_load_vector().tobytes() == untouched.cpu_load_vector().tobytes()
        assert usage.cpu_alloc_vector().tobytes() == untouched.cpu_alloc_vector().tobytes()
        assert [usage.task_count(node) for node in range(2)] == [0, 1]

    def test_copy_from_adopts_the_other_tally(self, small_cluster):
        source = small_cluster.usage(unavailable=(2,))
        source.add_task(0, 0.5, 0.5, 0.8)
        target = small_cluster.usage()
        target.add_task(1, 0.1, 0.1, 1.0)
        target.copy_from(source)
        assert target.task_count(0) == 1 and target.task_count(1) == 0
        assert target.cpu_allocated(0) == source.cpu_allocated(0)
        assert target.unavailable_nodes() == frozenset({2})
        source.add_task(0, 0.1, 0.1, 0.0)
        assert target.task_count(0) == 1  # a copy, not an alias

    def test_least_loaded_fitting_skips_full_nodes(self, small_cluster):
        usage = small_cluster.usage()
        for node in range(1, small_cluster.num_nodes):
            usage.add_task(node, 0.5, 0.1, 0.0)
        usage.add_task(0, 0.1, 0.95, 1.0)
        # Node 0 is the least loaded but has no room for 10% more memory.
        assert least_loaded(usage, 0.1) == 1
        assert least_loaded(usage, 0.05) == 0
        assert least_loaded(usage, 0.95) == -1

    def test_memory_slots_counts_up_to_the_limit(self, small_cluster):
        usage = small_cluster.usage(unavailable=(7,))
        usage.add_task(0, 0.1, 0.95, 1.0)
        # Six empty nodes take three 30% tasks each; node 0 and node 7 none.
        assert usage.memory_slots(0.3, 100) == 18
        assert usage.memory_slots(0.3, 5) == 5
        assert usage.memory_slots(0.3, 0) == 0
        assert usage.memory_slots(0.0, 100) == 100
        assert usage.memory_slots(1.5, 1) == 0
        assert usage.memory_used(1) == 0.0  # nothing was placed

    @given(
        placements=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.floats(min_value=0.01, max_value=0.3),
                st.floats(min_value=0.01, max_value=0.12),
                st.floats(min_value=0.01, max_value=1.0),
            ),
            max_size=20,
        )
    )
    def test_usage_invariants_property(self, placements):
        """Adding then removing all tasks returns the tally to zero."""
        cluster = Cluster(num_nodes=8)
        usage = cluster.usage()
        added = []
        for node, cpu, mem, yd in placements:
            try:
                usage.add_task(node, cpu, mem, yd)
            except InfeasibleAllocationError:
                continue
            added.append((node, cpu, mem, yd))
            assert usage.memory_used(node) <= 1.0 + CAPACITY_EPSILON
            assert usage.cpu_allocated(node) <= 1.0 + CAPACITY_EPSILON
        for node, cpu, mem, yd in added:
            usage.remove_task(node, cpu, mem, yd)
        for node in cluster.node_ids:
            assert usage.task_count(node) == 0
            assert usage.memory_used(node) == pytest.approx(0.0, abs=1e-6)
            assert usage.cpu_allocated(node) == pytest.approx(0.0, abs=1e-6)


def _reference_least_loaded_fitting(usage: ClusterUsage, mem_requirement: float) -> int:
    """The least-loaded rule as a sort: order every node by
    (load, index), drop down and full nodes one scalar check at a time, keep
    the first."""
    cluster = usage.cluster
    keys = usage.cpu_load_vector()
    if cluster.cpu_capacities is not None:
        keys = keys / cluster.cpu_capacity_vector()
    memory = usage.memory_vector()
    for node in np.lexsort((np.arange(cluster.num_nodes), keys)):
        if not usage.is_available(int(node)):
            continue
        limit = 1.0 if cluster.mem_capacities is None else usage.mem_capacity(int(node))
        if memory[node] + mem_requirement <= limit + CAPACITY_EPSILON:
            return int(node)
    return -1


#: A few loads only, so equal keys (ties) are the rule rather than the exception.
_LOADS = st.sampled_from([0.0, 0.25, 0.5, 0.1 + 0.2, 0.3, 1.0])
#: Distance from "exactly full" once the probed task is added.
_EDGE_OFFSETS = st.sampled_from(
    [-2e-6, -CAPACITY_EPSILON, -5e-7, 0.0, 5e-7, CAPACITY_EPSILON, 2e-6]
)
_CAPACITIES = st.sampled_from([0.5, 1.0, 2.0])


@st.composite
def _usage_and_probe(draw):
    """A loaded (possibly heterogeneous, partly or wholly down) tally and a
    memory requirement that sits within ±epsilon of full on some nodes."""
    num_nodes = draw(st.integers(min_value=1, max_value=8))
    per_node = st.lists(_CAPACITIES, min_size=num_nodes, max_size=num_nodes)
    cluster = Cluster(
        num_nodes,
        cpu_capacities=draw(st.none() | per_node),
        mem_capacities=draw(st.none() | per_node),
    )
    down = draw(
        st.sets(st.integers(min_value=0, max_value=num_nodes - 1))
        | st.just(set(range(num_nodes)))
    )
    usage = cluster.usage(unavailable=down)
    mem_requirement = draw(st.sampled_from([0.0, 0.1, 0.25, 1.0 / 3.0, 0.5]))
    for node in range(num_nodes):
        load = draw(_LOADS)
        if draw(st.booleans()):
            # Leave this node within +-epsilon of exactly full for the probe.
            memory = cluster.mem_capacity(node) - mem_requirement + draw(_EDGE_OFFSETS)
        else:
            memory = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
        usage.add_task(node, load, max(0.0, memory), 0.0, check=False)
    return usage, mem_requirement


class TestLeastLoadedFittingMatchesTheSortedScan:
    @given(case=_usage_and_probe())
    @settings(max_examples=300, deadline=None)
    def test_same_node_as_lexsort_filter_first(self, case):
        usage, mem_requirement = case
        before = (usage.memory_vector(), usage.cpu_load_vector())
        expected = _reference_least_loaded_fitting(usage, mem_requirement)
        assert least_loaded(usage, mem_requirement) == expected
        assert (usage.memory_vector() == before[0]).all()
        assert (usage.cpu_load_vector() == before[1]).all()

    def test_all_nodes_down_is_minus_one(self):
        usage = Cluster(3).usage(unavailable=(0, 1, 2))
        assert least_loaded(usage, 0.0) == -1
        assert _reference_least_loaded_fitting(usage, 0.0) == -1
        assert usage.memory_slots(0.0, 4) == 0
