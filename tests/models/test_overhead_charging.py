"""Overhead-model semantics: what each model charges and where it lands.

Unit-level: per-model arithmetic (event gating, memory scaling, per-class
bandwidth) and constructor validation.  Engine-level: charges land on
``penalty_remaining`` (delaying completions) and in the run's cost tally
(``overhead_events`` / ``overhead_seconds``) at exactly the preemption /
migration / checkpoint / resume instants.
"""

from __future__ import annotations

import pytest

from repro.core.cluster import Cluster
from repro.core.engine import SimulationConfig, Simulator
from repro.core.job import JobSpec
from repro.exceptions import ConfigurationError
from repro.models import (
    CheckpointBandwidthOverheadModel,
    ConstantOverheadModel,
    MemoryLinearOverheadModel,
    NoOverheadModel,
    job_memory_gb,
)
from repro.platform import TraceNodeEventSource
from repro.schedulers.registry import create_scheduler
from repro.traces.lublin import LublinWorkloadGenerator

#: 4 tasks x 0.25 of an 8 GB node = 8 GB of state to move.
SPEC = JobSpec(0, 0.0, 4, 1.0, 0.25, 100.0)
CLUSTER = Cluster(8, 4, 8.0)


class TestModelArithmetic:
    def test_job_memory_is_physical_footprint(self):
        assert job_memory_gb(SPEC, CLUSTER) == pytest.approx(8.0)

    def test_none_charges_nothing_anywhere(self):
        model = NoOverheadModel()
        for event in ("preemption", "migration", "resume", "checkpoint"):
            assert model.overhead_seconds(event, SPEC, CLUSTER) == 0.0

    def test_constant_charges_per_event_kind(self):
        model = ConstantOverheadModel(
            preemption_seconds=5.0, migration_seconds=10.0, resume_seconds=2.0
        )
        assert model.overhead_seconds("preemption", SPEC, CLUSTER) == 5.0
        assert model.overhead_seconds("migration", SPEC, CLUSTER) == 10.0
        assert model.overhead_seconds("resume", SPEC, CLUSTER) == 2.0
        assert model.overhead_seconds("checkpoint", SPEC, CLUSTER) == 0.0

    def test_memory_linear_scales_with_footprint_and_gates_events(self):
        model = MemoryLinearOverheadModel(
            seconds_per_gb=0.5, events=("migration",)
        )
        assert model.overhead_seconds("migration", SPEC, CLUSTER) == (
            pytest.approx(4.0)
        )
        assert model.overhead_seconds("preemption", SPEC, CLUSTER) == 0.0

    def test_checkpoint_bandwidth_uses_slowest_class_in_assignment(self):
        model = CheckpointBandwidthOverheadModel(
            bandwidth_gb_per_sec=2.0, class_bandwidth={"slow": 0.5}
        )
        classes = ("fast", "slow")
        # No assignment known: default bandwidth (8 GB / 2 GB/s).
        assert model.overhead_seconds("checkpoint", SPEC, CLUSTER) == (
            pytest.approx(4.0)
        )
        # Assignment touches the slow class: its 0.5 GB/s dominates.
        assert model.overhead_seconds(
            "checkpoint", SPEC, CLUSTER, nodes=(0, 1), node_classes=classes
        ) == pytest.approx(16.0)
        # Fast-only assignment: no override for "fast", default applies.
        assert model.overhead_seconds(
            "checkpoint", SPEC, CLUSTER, nodes=(0,), node_classes=classes
        ) == pytest.approx(4.0)

    def test_unknown_event_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown overhead event"):
            NoOverheadModel().overhead_seconds("restart", SPEC, CLUSTER)

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigurationError, match="preemption_seconds"):
            ConstantOverheadModel(preemption_seconds=-1.0)
        with pytest.raises(ConfigurationError, match="at least one event"):
            MemoryLinearOverheadModel(seconds_per_gb=1.0, events=())
        with pytest.raises(ConfigurationError, match="duplicates"):
            MemoryLinearOverheadModel(
                seconds_per_gb=1.0, events=("resume", "resume")
            )
        with pytest.raises(ConfigurationError, match="bandwidth_gb_per_sec"):
            CheckpointBandwidthOverheadModel(bandwidth_gb_per_sec=0.0)
        with pytest.raises(ConfigurationError, match="class_bandwidth"):
            CheckpointBandwidthOverheadModel(
                bandwidth_gb_per_sec=1.0, class_bandwidth={"slow": -2.0}
            )


class TestEngineCharging:
    def test_checkpoint_and_resume_charges_delay_completions(self):
        # The failure-semantics scenario from the platform tests: dynmcb8
        # packs both jobs onto node 0, which fails at t=200; both checkpoint
        # and resume on node 1 within the same event and (uncharged) finish
        # at exactly t=1000.  A 50 s checkpoint + 25 s resume charge lands
        # on penalty_remaining, so each finishes 75 s later.
        specs = [
            JobSpec(0, 0.0, 1, 0.5, 0.4, 1000.0),
            JobSpec(1, 0.0, 1, 0.5, 0.4, 1000.0),
        ]
        config = SimulationConfig(
            node_events=TraceNodeEventSource(
                events_list=((200.0, 0, "down"), (500.0, 0, "up"))
            ),
            failure_policy="migrate",
            overhead_model=ConstantOverheadModel(
                checkpoint_seconds=50.0, resume_seconds=25.0
            ),
        )
        result = Simulator(
            Cluster(2), create_scheduler("dynmcb8"), config
        ).run(specs)
        for record in result.jobs:
            assert record.completion_time == pytest.approx(1075.0)
        assert result.costs.overhead_events == 4
        assert result.costs.overhead_seconds == pytest.approx(150.0)

    def test_preemption_charges_match_preemption_count(self):
        # Failure-free run: every preemption charge instant coincides with a
        # preemption tally, so a preemption-only constant model must record
        # exactly preemption_count events at 2 s each (migrations and
        # resumes are consulted too, but charge zero and go unrecorded).
        workload = LublinWorkloadGenerator(CLUSTER).generate(40, seed=2010)
        config = SimulationConfig(
            overhead_model=ConstantOverheadModel(preemption_seconds=2.0)
        )
        result = Simulator(
            CLUSTER, create_scheduler("dynmcb8-asap-per-600"), config
        ).run(workload.jobs)
        count = result.costs.preemption_count
        assert count > 0
        assert result.costs.overhead_events == count
        assert result.costs.overhead_seconds == pytest.approx(2.0 * count)

    def test_overheads_inflate_stretch_monotonically(self):
        workload = LublinWorkloadGenerator(CLUSTER).generate(40, seed=2010)

        def mean_stretch(seconds_per_gb):
            model = (
                MemoryLinearOverheadModel(seconds_per_gb=seconds_per_gb)
                if seconds_per_gb
                else None
            )
            result = Simulator(
                CLUSTER,
                create_scheduler("greedy-pmtn-migr"),
                SimulationConfig(overhead_model=model),
            ).run(workload.jobs)
            return result.mean_stretch, result.costs.overhead_seconds

        free_stretch, free_seconds = mean_stretch(0.0)
        costly_stretch, costly_seconds = mean_stretch(5.0)
        assert free_seconds == 0.0
        assert costly_seconds > 0.0
        assert costly_stretch > free_stretch
