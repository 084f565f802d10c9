"""Tests for the `generator`/`transform` scenario sources and the
CustomSource spec gap."""

from __future__ import annotations

import pytest

from repro.campaign import (
    Campaign,
    CustomSource,
    GeneratorSource,
    Scenario,
    TransformSource,
    scenario_from_dict,
    scenario_hash,
)
from repro.campaign.scenario import source_from_dict
from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.traces import DowneyTraceSource, Head, RescaleLoad

CLUSTER = Cluster(16, 4, 8.0)


class TestGeneratorSource:
    def test_instances_vary_the_seed(self):
        source = GeneratorSource(
            model="downey",
            instances=3,
            seed_base=50,
            options=(("num_jobs", 20),),
        )
        workloads = source.workloads(CLUSTER)
        assert [w.name for w in workloads] == [
            "downey-seed50", "downey-seed51", "downey-seed52",
        ]
        assert workloads[0].jobs != workloads[1].jobs

    def test_round_trip_spec(self):
        source = GeneratorSource(
            model="diurnal-poisson",
            instances=2,
            seed_base=9,
            options=(("num_jobs", 15),),
        )
        rebuilt = source_from_dict(source.to_dict())
        assert rebuilt == source

    def test_options_mapping_coerced(self):
        source = GeneratorSource(model="downey", options={"num_jobs": 5})
        assert dict(source.options) == {"num_jobs": 5}

    def test_bad_model_fails_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown trace source"):
            GeneratorSource(model="not-a-model")

    def test_bad_options_fail_at_construction(self):
        with pytest.raises(ConfigurationError, match="invalid options"):
            GeneratorSource(model="downey", options={"bogus": 1})

    def test_options_cannot_override_the_model(self):
        # 'type' in options used to win over 'model' while to_dict() (and so
        # the scenario hash and run cache) kept saying 'downey'.
        with pytest.raises(ConfigurationError, match="must not set 'type'"):
            GeneratorSource(
                model="downey", options={"type": "lublin", "num_jobs": 5}
            )

    def test_seed_option_rejected(self):
        with pytest.raises(ConfigurationError, match="seed_base"):
            GeneratorSource(model="downey", options={"seed": 1})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GeneratorSource(model="")
        with pytest.raises(ConfigurationError):
            GeneratorSource(model="downey", instances=0)


class TestTransformSource:
    def _chain(self):
        return DowneyTraceSource(num_jobs=40, seed=3).transformed(
            RescaleLoad(target_load=0.5), Head(count=25)
        )

    def test_materializes_single_instance(self):
        source = TransformSource(source=self._chain())
        workloads = source.workloads(CLUSTER)
        assert len(workloads) == 1
        assert workloads[0].num_jobs == 25

    def test_round_trip_spec(self):
        source = TransformSource(source=self._chain())
        rebuilt = source_from_dict(source.to_dict())
        assert rebuilt.to_dict() == source.to_dict()

    def test_rejects_non_expressible_chains(self):
        from repro.traces import PredicateFilter

        chain = DowneyTraceSource(num_jobs=5, seed=1).transformed(
            PredicateFilter(predicate=lambda s: True, key="k")
        )
        with pytest.raises(ConfigurationError, match="not spec-expressible"):
            TransformSource(source=chain)

    def test_rejects_non_source(self):
        with pytest.raises(ConfigurationError):
            TransformSource(source="nope")

    def test_rejects_bare_models(self):
        # A bare generator would serialise under its own type name and not
        # round-trip through the 'transform' spec dispatch — GeneratorSource
        # is the right wrapper for it.
        with pytest.raises(ConfigurationError, match="GeneratorSource"):
            TransformSource(source=DowneyTraceSource(num_jobs=5, seed=1))


class TestSpecGap:
    def test_custom_source_flagged_not_expressible(self):
        source = CustomSource(factory=lambda cluster: [], key="k")
        assert not source.spec_expressible

    def test_expressible_sources_flagged(self):
        assert GeneratorSource(model="downey").spec_expressible
        assert TransformSource.spec_expressible

    def test_custom_spec_gets_targeted_error(self):
        with pytest.raises(ConfigurationError) as excinfo:
            source_from_dict({"type": "custom", "key": "k"})
        message = str(excinfo.value)
        assert "not spec-expressible" in message
        assert "generator" in message and "transform" in message


class TestEndToEnd:
    def test_transform_chain_campaign_from_spec(self, tmp_path):
        spec = {
            "name": "transform-chain",
            "cluster": {"nodes": 16, "cores_per_node": 4, "node_memory_gb": 8.0},
            "source": {
                "type": "transform",
                "base": {"type": "downey", "num_jobs": 40, "seed": 3},
                "steps": [
                    {"type": "filter", "max_tasks": 8},
                    {"type": "rescale-load", "target_load": 0.5},
                ],
            },
            "algorithms": ["easy", "greedy-pmtn"],
            "collectors": ["stretch"],
        }
        scenario = scenario_from_dict(spec)
        outcome = Campaign().run(scenario)
        assert len(outcome.rows) == 2
        assert outcome.rows[0].workload == "downey-seed3+filter+rescale-load"
        for row in outcome.rows:
            assert row.metric("max_stretch") >= 1.0

    def test_generator_campaign_from_spec(self):
        spec = {
            "name": "generator-sweep",
            "cluster": {"nodes": 16, "cores_per_node": 4, "node_memory_gb": 8.0},
            "source": {
                "type": "generator",
                "model": "diurnal-poisson",
                "instances": 2,
                "seed_base": 4,
                "options": {"num_jobs": 25, "mean_interarrival_seconds": 1200.0},
            },
            "algorithms": ["easy"],
            "sweep": {"load": [0.3, 0.6]},
        }
        scenario = scenario_from_dict(spec)
        outcome = Campaign().run(scenario)
        # 2 cells x 2 instances x 1 algorithm.
        assert len(outcome.rows) == 4

    def test_hash_stable_across_round_trip(self):
        scenario = Scenario(
            name="hash-check",
            source=GeneratorSource(
                model="downey", instances=2, seed_base=1,
                options=(("num_jobs", 10),),
            ),
            algorithms=("easy",),
            cluster=CLUSTER,
        )
        rebuilt = scenario_from_dict(scenario.to_dict())
        assert scenario_hash(rebuilt) == scenario_hash(scenario)
