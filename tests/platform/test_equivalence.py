"""The homogeneous platform is byte-identical to the Cluster path.

Scenarios carrying a homogeneous platform serialise (and therefore hash,
cache, and export) exactly like cluster-built scenarios, and give the same
campaign rows.  Engine results of a platform-built cluster against the
scenario's demoted one are an oracle of ``tests/generated/test_scenarios.py``.
"""

from __future__ import annotations

from repro.campaign import Campaign
from repro.campaign.scenario import LublinSource, Scenario, scenario_hash
from repro.core.cluster import Cluster
from repro.platform import HomogeneousPlatform

CLUSTER = Cluster(16, 4, 8.0)


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
