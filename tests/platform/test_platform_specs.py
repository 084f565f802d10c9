"""Platform contract: spec round-trips, registry dispatch, validation."""

from __future__ import annotations

import random

import pytest

from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.platform import (
    ExponentialFailureSource,
    HomogeneousPlatform,
    NodeClass,
    NodeClassesPlatform,
    TraceNodeEventSource,
    available_platforms,
    platform_from_dict,
    register_platform,
)

from ..conftest import least_loaded


class TestClusterCapacities:
    def test_all_ones_vectors_canonicalise_to_none(self):
        cluster = Cluster(4, 4, 8.0, cpu_capacities=(1.0,) * 4, mem_capacities=(1.0,) * 4)
        assert cluster.cpu_capacities is None
        assert cluster.mem_capacities is None
        assert not cluster.is_heterogeneous
        assert cluster == Cluster(4, 4, 8.0)

    def test_heterogeneous_vectors_survive(self):
        cluster = Cluster(3, cpu_capacities=(2.0, 1.0, 0.5))
        assert cluster.is_heterogeneous
        assert cluster.cpu_capacity(0) == 2.0
        assert cluster.mem_capacity(0) == 1.0  # memory stays homogeneous
        assert cluster.total_cpu_capacity() == 3.5
        assert cluster.node_capacities()[2] == (0.5, 1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError, match="one capacity per node"):
            Cluster(3, cpu_capacities=(1.0, 2.0))

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="must be > 0"):
            Cluster(2, mem_capacities=(1.0, 0.0))

    def test_usage_respects_memory_capacity(self):
        cluster = Cluster(2, mem_capacities=(1.0, 0.5))
        usage = cluster.usage()
        # Only node 0 is big enough for an 80% task; both take a 40% one.
        assert least_loaded(usage, 0.8) == 0
        assert usage.memory_slots(0.8, 4) == 1
        assert usage.memory_slots(0.4, 4) == 3
        usage.add_task(0, 0.5, 0.1, 0.0)
        assert least_loaded(usage, 0.4) == 1
        assert least_loaded(usage, 0.8) == 0
        assert usage.memory_free(1) == 0.5

    def test_usage_unavailable_nodes(self):
        usage = Cluster(3).usage(unavailable=(1,))
        # Down node 1 is never chosen, however lightly loaded it is.
        usage.add_task(0, 0.5, 0.1, 0.0)
        assert least_loaded(usage, 0.1) == 2
        usage.add_task(2, 0.7, 0.1, 0.0)
        assert least_loaded(usage, 0.1) == 0
        assert usage.memory_slots(0.5, 10) == 2
        snapshot = usage.snapshot()
        assert snapshot.unavailable_nodes() == frozenset({1})

    def test_normalized_load_ordering(self):
        cluster = Cluster(2, cpu_capacities=(2.0, 1.0))
        usage = cluster.usage()
        # Same absolute load, but node 0 is twice as fast: it sorts first.
        usage.add_task(0, 0.5, 0.1, 0.0, check=False)
        usage.add_task(1, 0.5, 0.1, 0.0, check=False)
        assert least_loaded(usage, 0.1) == 0
        assert usage.max_cpu_load() == 0.5  # normalised by speed
        # Node 0 stays ahead until its load per unit of speed passes node 1's.
        usage.add_task(0, 0.4, 0.1, 0.0, check=False)
        assert least_loaded(usage, 0.1) == 0
        usage.add_task(0, 0.2, 0.1, 0.0, check=False)
        assert least_loaded(usage, 0.1) == 1


class TestHomogeneousPlatform:
    def test_builds_the_plain_cluster(self):
        platform = HomogeneousPlatform(nodes=16, cores_per_node=2, node_memory_gb=4.0)
        assert platform.build_cluster() == Cluster(16, 2, 4.0)
        assert not platform.build_cluster().is_heterogeneous

    def test_round_trip(self):
        platform = HomogeneousPlatform(
            nodes=8,
            events=TraceNodeEventSource(events_list=((5.0, 1, "down"),)),
            failure_policy="migrate",
        )
        rebuilt = platform_from_dict(platform.to_dict())
        assert rebuilt == platform

    def test_bad_failure_policy_rejected(self):
        with pytest.raises(ConfigurationError, match="failure_policy"):
            HomogeneousPlatform(nodes=4, failure_policy="explode")

    def test_events_spec_mapping_accepted(self):
        platform = HomogeneousPlatform(
            nodes=4, events={"type": "trace", "events": [[1.0, 0, "down"]]}
        )
        assert isinstance(platform.events, TraceNodeEventSource)


class TestNodeClassesPlatform:
    def test_layout_in_declaration_order(self):
        platform = NodeClassesPlatform(
            classes=(
                NodeClass("fast", 2, cpu=2.0),
                NodeClass("small", 3, cpu=0.5, memory=0.25),
            )
        )
        cluster = platform.build_cluster()
        assert cluster.num_nodes == 5
        assert cluster.cpu_capacities == (2.0, 2.0, 0.5, 0.5, 0.5)
        assert cluster.mem_capacities == (1.0, 1.0, 0.25, 0.25, 0.25)
        assert platform.class_of_node(0).name == "fast"
        assert platform.class_of_node(4).name == "small"

    def test_single_reference_class_is_homogeneous(self):
        platform = NodeClassesPlatform(classes=(NodeClass("ref", 7),))
        cluster = platform.build_cluster()
        assert cluster == Cluster(7)
        assert not cluster.is_heterogeneous

    def test_round_trip(self):
        platform = NodeClassesPlatform(
            classes=(NodeClass("a", 1, cpu=1.5), NodeClass("b", 2, memory=2.0)),
            cores_per_node=8,
            node_memory_gb=16.0,
            events=ExponentialFailureSource(
                mtbf_seconds=1000.0, mttr_seconds=10.0, horizon_seconds=100.0, seed=3
            ),
        )
        rebuilt = platform_from_dict(platform.to_dict())
        assert rebuilt == platform

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unique"):
            NodeClassesPlatform(classes=(NodeClass("x", 1), NodeClass("x", 1)))

    def test_empty_classes_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            NodeClassesPlatform(classes=())

    def test_class_validation(self):
        with pytest.raises(ConfigurationError, match="count"):
            NodeClass("x", 0)
        with pytest.raises(ConfigurationError, match="cpu"):
            NodeClass("x", 1, cpu=-1.0)


class TestRegistry:
    def test_known_types(self):
        assert set(available_platforms()) >= {"homogeneous", "node-classes"}

    def test_unknown_type_error_names_known_types(self):
        with pytest.raises(ConfigurationError, match="homogeneous"):
            platform_from_dict({"type": "quantum"})

    def test_missing_type_rejected(self):
        with pytest.raises(ConfigurationError, match="'type'"):
            platform_from_dict({"nodes": 4})

    def test_bad_options_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid options"):
            platform_from_dict({"type": "homogeneous", "nodez": 4})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_platform("homogeneous", HomogeneousPlatform)

    def test_property_random_node_class_round_trips(self):
        rng = random.Random(20100525)
        for _ in range(25):
            classes = tuple(
                NodeClass(
                    name=f"c{i}",
                    count=rng.randint(1, 8),
                    cpu=round(rng.uniform(0.25, 4.0), 3),
                    memory=round(rng.uniform(0.25, 4.0), 3),
                )
                for i in range(rng.randint(1, 4))
            )
            platform = NodeClassesPlatform(classes=classes)
            rebuilt = platform_from_dict(platform.to_dict())
            assert rebuilt == platform
            cluster = platform.build_cluster()
            assert cluster.num_nodes == sum(c.count for c in classes)
            # The capacity vectors expand class by class, in order.
            cursor = 0
            for node_class in classes:
                for _ in range(node_class.count):
                    assert cluster.cpu_capacity(cursor) == node_class.cpu
                    assert cluster.mem_capacity(cursor) == node_class.memory
                    cursor += 1
