"""End-to-end tests of the experiment harness at a tiny scale."""

from __future__ import annotations

import numpy as np
import pytest

from dataclasses import replace

from repro import run_algorithm, run_instance, run_paper, run_timing_study
from repro.campaign.executor import Campaign
from repro.campaign.studies import (
    HIGH_LOAD_THRESHOLD,
    TABLE2_ALGORITHMS,
    TABLE2_METRICS,
    ExperimentConfig,
    lublin_source,
    paper_scenarios,
)
from repro.core.cluster import Cluster
from repro.traces import scale_to_load

# The golden files' configuration: 16 nodes, 2 traces x 30 jobs, loads 0.3/0.8.
from .golden_config import GOLDEN_CONFIG as TINY


def synthetic_instances(load=None):
    """The study drivers' traces: the config's Lublin source, then the load."""
    instances = lublin_source(TINY).workloads(TINY.cluster)
    if load is None:
        return instances
    return [scale_to_load(workload, load) for workload in instances]


class TestRunner:
    def test_generate_synthetic_instances_scaled(self):
        instances = synthetic_instances(load=0.5)
        assert len(instances) == TINY.num_traces
        for workload in instances:
            assert workload.num_jobs == TINY.num_jobs
            assert workload.load() == pytest.approx(0.5, rel=1e-6)

    def test_generate_synthetic_instances_unscaled(self):
        instances = synthetic_instances()
        assert [workload.name for workload in instances] == ["lublin-000", "lublin-001"]
        assert instances[0].load() != pytest.approx(instances[1].load())

    def test_run_algorithm_completes_every_job(self):
        workload = synthetic_instances(load=0.5)[0]
        result = run_algorithm(workload, "greedy-pmtn", penalty_seconds=300.0)
        assert result.num_jobs == workload.num_jobs
        assert result.max_stretch >= 1.0

    def test_run_instance_and_degradation(self):
        workload = synthetic_instances(load=0.5)[0]
        instance = run_instance(workload, TINY.algorithms, penalty_seconds=300.0)
        assert set(instance.results) == set(TINY.algorithms)
        factors = instance.degradation_factors()
        assert min(factors.values()) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def paper_report():
    return run_paper(replace(TINY, penalty_seconds=0.0))


class TestArtifacts:
    def test_figure1_structure(self, paper_report):
        scaled = paper_report.campaigns[0]
        for load in TINY.load_levels:
            values = scaled.degradation_averages(load=load)
            assert set(values) == set(TINY.algorithms)
            assert min(values.values()) >= 1.0 - 1e-9
        text = paper_report.format()
        assert "Figure 1" in text and "no rescheduling penalty" in text
        for algorithm in TINY.algorithms:
            assert algorithm in text

    def test_table1_structure(self, paper_report):
        assert [outcome.name for outcome in paper_report.campaigns] == [
            "paper-scaled", "paper-unscaled", "paper-real"
        ]
        for outcome in paper_report.campaigns:
            assert outcome.axes()[0] == "penalty"
            column = outcome.degradation_stats(penalty=0.0)
            assert set(column) == set(TINY.algorithms)
            for stats in column.values():
                assert stats.average >= 1.0 - 1e-9
                assert stats.maximum >= stats.average - 1e-9
        assert "Table I" in paper_report.format()

    def test_table2_structure(self):
        config = replace(TINY, algorithms=TABLE2_ALGORITHMS)
        outcome = Campaign().run(paper_scenarios(config)["scaled"])
        assert outcome.algorithms() == list(TABLE2_ALGORITHMS)
        worst = {name: outcome.aggregate(name, statistic="max") for name in TABLE2_METRICS}
        for name in TABLE2_METRICS:
            mean = outcome.aggregate(name, statistic="mean")
            assert all(mean[a] >= 0.0 for a in TABLE2_ALGORITHMS)
            assert all(worst[name][a] >= mean[a] - 1e-9 for a in TABLE2_ALGORITHMS)
        # GREEDY-PMTN never migrates (Table II shows 0.00 in the paper).
        assert worst["migr_per_job"]["greedy-pmtn"] == pytest.approx(0.0)
        # DYNMCB8 repacks at every event, so it migrates at least half as
        # much per job as its periodic variant.
        migrations = outcome.aggregate("migr_per_job")
        assert migrations["dynmcb8"] >= 0.5 * migrations["dynmcb8-per-600"]

    def test_table2_gives_way_to_its_reason_without_a_high_load(self):
        config = ExperimentConfig(
            cluster=Cluster(8),
            num_traces=1,
            num_jobs=10,
            load_levels=(0.3, 0.5),
            algorithms=("easy", "greedy-pmtn"),
            hpc2n_jobs_per_week=10,
        )
        text = run_paper(config).format()
        assert "Figure 1" in text and "Table I" in text
        assert "Table II:" not in text
        assert text.endswith(
            f"\n\nTable II needs a load of at least {HIGH_LOAD_THRESHOLD}; "
            "this run's loads are 0.3, 0.5."
        )

    def test_timing_study(self):
        report = run_timing_study(TINY, algorithm="dynmcb8")
        times, counts, gaps = (
            np.concatenate([row.metric(name) for row in report.outcome.rows])
            for name in ("scheduler_times", "scheduler_job_counts", "interarrivals")
        )
        assert len(times) == len(counts) > 0
        assert times.min() >= 0.0
        assert gaps.mean() > 0.0
        # §V: an allocation costs far less than the time between arrivals,
        # and with 10 or fewer jobs in the system it is usually instantaneous.
        assert times.mean() < gaps.mean() / 10.0
        assert np.mean(times[counts <= 10] <= 0.001) >= 0.25
        text = report.format()
        assert "dynmcb8" in text and str(len(times)) in text
