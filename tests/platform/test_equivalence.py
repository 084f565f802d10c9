"""Satellite: the homogeneous platform is byte-identical to the Cluster path.

The guarantee has two layers:

* **construction** — a homogeneous platform (or an all-ones node-classes
  platform) builds a :class:`Cluster` that *equals* the directly constructed
  one, and scenarios carrying it serialise (and therefore hash, cache, and
  export) exactly like cluster-built scenarios;
* **execution** — engine results across the tier-1 scheduler matrix are
  byte-identical between the two construction routes, penalties included.
"""

from __future__ import annotations

import pytest

from repro.campaign import Campaign
from repro.campaign.scenario import LublinSource, Scenario, scenario_hash
from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.penalties import ReschedulingPenaltyModel
from repro.platform import HomogeneousPlatform, NodeClass, NodeClassesPlatform
from repro.schedulers.registry import create_scheduler
from repro.traces.lublin import LublinWorkloadGenerator

#: The tier-1 scheduler matrix: every paper algorithm family plus the batch
#: baselines (exactly the names the drivers exercise).
MATRIX = (
    "fcfs",
    "easy",
    "greedy",
    "greedy-pmtn",
    "greedy-pmtn-migr",
    "dynmcb8",
    "dynmcb8-per-600",
    "dynmcb8-asap-per-600",
    "dynmcb8-stretch-per-600",
)

CLUSTER = Cluster(16, 4, 8.0)


def _workload():
    return LublinWorkloadGenerator(CLUSTER).generate(60, seed=2010)


def _signature(result):
    """Everything observable of a run, bit-for-bit."""
    return (
        result.makespan,
        result.idle_node_seconds,
        result.costs.preemption_count,
        result.costs.migration_count,
        result.costs.preemption_gb,
        result.costs.migration_gb,
        [
            (
                record.spec.job_id,
                record.first_start_time,
                record.completion_time,
                record.preemptions,
                record.migrations,
            )
            for record in result.jobs
        ],
    )


def _simulate(cluster, algorithm):
    config = SimulationConfig(
        penalty_model=ReschedulingPenaltyModel(300.0),
        record_scheduler_times=False,
    )
    simulator = Simulator(cluster, create_scheduler(algorithm), config)
    return simulator.run(_workload().jobs)


class TestEngineEquivalence:
    @pytest.mark.parametrize("algorithm", MATRIX)
    def test_homogeneous_platform_matches_cluster(self, algorithm):
        platform_cluster = HomogeneousPlatform(
            nodes=16, cores_per_node=4, node_memory_gb=8.0
        ).build_cluster()
        assert platform_cluster == CLUSTER
        assert _signature(_simulate(platform_cluster, algorithm)) == _signature(
            _simulate(CLUSTER, algorithm)
        )

    @pytest.mark.parametrize("algorithm", MATRIX)
    def test_all_ones_node_classes_match_cluster(self, algorithm):
        platform_cluster = NodeClassesPlatform(
            classes=(NodeClass("ref", 16),), cores_per_node=4, node_memory_gb=8.0
        ).build_cluster()
        assert platform_cluster == CLUSTER
        assert _signature(_simulate(platform_cluster, algorithm)) == _signature(
            _simulate(CLUSTER, algorithm)
        )


class TestScenarioEquivalence:
    def _cluster_scenario(self):
        return Scenario(
            name="equiv",
            source=LublinSource(num_traces=1, num_jobs=40),
            algorithms=("greedy", "dynmcb8-asap-per-600", "easy"),
            cluster=CLUSTER,
            penalty_seconds=300.0,
            collectors=("stretch", "costs"),
        )

    def _platform_scenario(self):
        return Scenario(
            name="equiv",
            source=LublinSource(num_traces=1, num_jobs=40),
            algorithms=("greedy", "dynmcb8-asap-per-600", "easy"),
            platform=HomogeneousPlatform(
                nodes=16, cores_per_node=4, node_memory_gb=8.0
            ),
            penalty_seconds=300.0,
            collectors=("stretch", "costs"),
        )

    def test_spec_dict_and_hash_identical(self):
        # An event-free homogeneous platform collapses to the legacy cluster
        # form: same canonical dictionary, same hash, same cache keys.
        assert self._platform_scenario().to_dict() == self._cluster_scenario().to_dict()
        assert scenario_hash(self._platform_scenario()) == scenario_hash(
            self._cluster_scenario()
        )

    def test_campaign_rows_identical(self):
        cluster_rows = Campaign().run(self._cluster_scenario()).rows
        platform_rows = Campaign().run(self._platform_scenario()).rows
        assert [row.to_dict() for row in platform_rows] == [
            row.to_dict() for row in cluster_rows
        ]

    def test_spec_platform_block_round_trips_to_same_rows(self):
        from repro.campaign.scenario import scenario_from_dict

        spec = {
            "name": "equiv",
            "source": {"type": "lublin", "num_traces": 1, "num_jobs": 40,
                       "seed_base": 2010},
            "platform": {"type": "homogeneous", "nodes": 16,
                         "cores_per_node": 4, "node_memory_gb": 8.0},
            "algorithms": ["greedy", "dynmcb8-asap-per-600", "easy"],
            "penalty_seconds": 300.0,
            "collectors": ["stretch", "costs"],
        }
        from_spec = Campaign().run(scenario_from_dict(spec)).rows
        direct = Campaign().run(self._cluster_scenario()).rows
        assert [row.to_dict() for row in from_spec] == [
            row.to_dict() for row in direct
        ]
