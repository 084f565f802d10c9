"""The scenario ``models`` block: spec form, hash pinning, sweep templating.

Default models (``none`` / ``exact``) are demoted and a defaults-only block
is dropped entirely, so a model-free spec's hash — and therefore its run
cache and artifact names — is untouched by this subsystem.  Non-default
blocks round-trip canonically, template over sweep axes with the same
``{axis}`` syntax as platforms, and reach the engine through both the
materialized and streaming campaign paths.
"""

from __future__ import annotations

import pytest

from repro.campaign import Campaign
from repro.campaign.scenario import (
    CollectorSpec,
    GeneratorSource,
    LublinSource,
    Scenario,
    scenario_from_dict,
    scenario_hash,
)
from repro.core.cluster import Cluster
from repro.exceptions import ConfigurationError
from repro.models import (
    ConstantOverheadModel,
    MemoryLinearOverheadModel,
    StochasticExecutionTimeModel,
)


def _scenario(**overrides) -> Scenario:
    options = dict(
        name="models-spec",
        source=LublinSource(num_traces=1, num_jobs=20),
        algorithms=("greedy-pmtn-migr",),
        cluster=Cluster(8, 4, 8.0),
        collectors=(CollectorSpec("costs"),),
    )
    options.update(overrides)
    return Scenario(**options)


class TestSpecForm:
    def test_defaults_only_block_is_dropped_and_hash_pinned(self):
        bare = _scenario()
        defaulted = _scenario(
            models={
                "overhead": {"type": "none"},
                "execution_time": {"type": "exact"},
            }
        )
        assert defaulted.models is None
        assert "models" not in defaulted.to_dict()
        assert scenario_hash(defaulted) == scenario_hash(bare)

    def test_non_default_block_round_trips_canonically(self):
        scenario = _scenario(
            models={
                "overhead": {"type": "memory-linear", "seconds_per_gb": 0.5},
                "execution_time": {
                    "type": "stochastic",
                    "seed": 7,
                    "min_multiplier": 1.0,
                    "max_multiplier": 1.3,
                },
            }
        )
        rebuilt = scenario_from_dict(scenario.to_dict())
        assert rebuilt.models == scenario.models
        assert scenario_hash(rebuilt) == scenario_hash(scenario)
        overhead, execution = scenario.resolved_models()
        assert overhead == MemoryLinearOverheadModel(seconds_per_gb=0.5)
        assert execution == StochasticExecutionTimeModel(
            seed=7, min_multiplier=1.0, max_multiplier=1.3
        )

    def test_model_instances_are_coerced_to_spec_form(self):
        scenario = _scenario(
            models={"overhead": ConstantOverheadModel(preemption_seconds=5.0)}
        )
        assert scenario.models["overhead"]["type"] == "constant"
        overhead, execution = scenario.resolved_models()
        assert overhead == ConstantOverheadModel(preemption_seconds=5.0)
        assert execution is None

    def test_models_reach_the_simulation_config(self):
        scenario = _scenario(
            models={"overhead": {"type": "constant", "preemption_seconds": 5.0}}
        )
        config = scenario.simulation_config()
        assert config.overhead_model == ConstantOverheadModel(
            preemption_seconds=5.0
        )
        assert config.execution_time_model is None
        assert _scenario().simulation_config().overhead_model is None

    def test_unknown_keys_and_bad_specs_rejected(self):
        with pytest.raises(ConfigurationError, match="models"):
            _scenario(models={"overheads": {"type": "none"}})
        with pytest.raises(ConfigurationError, match="unknown overhead model"):
            _scenario(models={"overhead": {"type": "quadratic"}})
        with pytest.raises(ConfigurationError, match="type"):
            _scenario(models={"overhead": {"seconds_per_gb": 1.0}})


class TestSweepTemplating:
    def test_templated_axis_resolves_per_cell(self):
        scenario = _scenario(
            models={
                "overhead": {"type": "memory-linear", "seconds_per_gb": "{cost}"}
            },
            sweep=(("cost", (0.0, 2.0)),),
        )
        overhead, _ = scenario.resolved_models({"cost": 2.0})
        assert overhead == MemoryLinearOverheadModel(seconds_per_gb=2.0)
        # Demotion is by *kind* ("none"/"exact"), not by parameter value: a
        # zero-cost memory-linear cell keeps its model (which charges 0 s).
        zero_overhead, _ = scenario.resolved_models({"cost": 0.0})
        assert zero_overhead == MemoryLinearOverheadModel(seconds_per_gb=0.0)

    def test_bad_axis_value_fails_at_construction(self):
        # Eager first-cell validation: a sweep value the model rejects is a
        # spec error, not a mid-campaign crash.
        with pytest.raises(ConfigurationError, match="seconds_per_gb"):
            _scenario(
                models={
                    "overhead": {
                        "type": "memory-linear",
                        "seconds_per_gb": "{cost}",
                    }
                },
                sweep=(("cost", (-1.0, 2.0)),),
            )


class TestCampaignIntegration:
    def test_materialized_sweep_charges_scale_with_the_axis(self):
        scenario = _scenario(
            models={
                "overhead": {"type": "memory-linear", "seconds_per_gb": "{cost}"}
            },
            sweep=(("cost", (0.0, 5.0)),),
        )
        outcome = Campaign().run(scenario)
        by_cost = {}
        for row in outcome.rows:
            cost = row.params_dict()["cost"]
            by_cost.setdefault(cost, 0.0)
            by_cost[cost] += row.metric("overhead_seconds")
        assert by_cost[0.0] == 0.0
        assert by_cost[5.0] > 0.0

    def test_streaming_campaign_carries_models(self):
        scenario = Scenario(
            name="models-stream",
            source=GeneratorSource(
                model="diurnal-poisson",
                instances=1,
                seed_base=7,
                options={
                    "num_jobs": 200,
                    "mean_interarrival_seconds": 60.0,
                    "runtime_log_mean": 5.5,
                    "runtime_log_sigma": 1.2,
                    "max_runtime_seconds": 14400.0,
                },
            ),
            algorithms=("dynmcb8-asap-per-600",),
            cluster=Cluster(16, 4, 8.0),
            models={
                "overhead": {"type": "memory-linear", "seconds_per_gb": 2.0}
            },
            collectors=(CollectorSpec("costs"),),
        )
        row = Campaign(streaming=True).run(scenario).rows[0]
        assert row.metric("pmtn_per_job") > 0.0
        assert row.metric("overhead_events") > 0
        assert row.metric("overhead_seconds") > 0.0
