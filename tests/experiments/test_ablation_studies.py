"""Tests for the ablation and extension experiment harnesses."""

from __future__ import annotations

import pytest

from repro.campaign.studies import (
    EXTENSION_ALGORITHMS,
    ExperimentConfig,
    generate_packing_instances,
    run_extensions_comparison,
    run_packing_ablation,
    run_period_sweep,
    run_utilization_study,
)
from repro.core import Cluster
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def tiny_config():
    return ExperimentConfig(
        cluster=Cluster(16, 4, 8.0),
        num_traces=1,
        num_jobs=40,
        load_levels=(0.5,),
        hpc2n_weeks=1,
        hpc2n_jobs_per_week=40,
    )


class TestPeriodSweep:
    @pytest.fixture(scope="class")
    def sweep(self, request):
        config = ExperimentConfig(
            cluster=Cluster(16, 4, 8.0),
            num_traces=1,
            num_jobs=40,
            load_levels=(0.5,),
            hpc2n_weeks=1,
            hpc2n_jobs_per_week=40,
        )
        return run_period_sweep(
            config, periods=(300.0, 1200.0), load=0.5, penalty_seconds=300.0
        )

    def test_one_point_per_period(self, sweep):
        assert list(sweep.outcome.aggregate("max_stretch", by="period")) == [300, 1200]
        assert sweep.outcome.algorithms() == [
            "dynmcb8-asap-per-300", "dynmcb8-asap-per-1200"
        ]

    def test_stretches_are_at_least_one(self, sweep):
        mean = sweep.outcome.aggregate("max_stretch", by="period")
        worst = sweep.outcome.aggregate("max_stretch", by="period", statistic="max")
        for period in mean:
            assert mean[period] >= 1.0
            assert worst[period] >= mean[period]

    def test_cost_rates_non_negative(self, sweep):
        for metric in ("pmtn_per_hour", "migr_per_hour"):
            assert min(sweep.outcome.metric_values(metric)) >= 0.0

    def test_format_mentions_algorithm_and_periods(self, sweep):
        text = sweep.format()
        assert "dynmcb8-asap-per" in text
        assert "300" in text and "1200" in text

    def test_empty_periods_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            run_period_sweep(tiny_config, periods=())

    def test_non_positive_period_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            run_period_sweep(tiny_config, periods=(0.0,))


class TestPackingAblation:
    def test_instance_generation_shape(self):
        instances = generate_packing_instances(3, 10, seed=1)
        assert len(instances) == 3
        assert all(len(jobs) == 10 for jobs in instances)
        for jobs in instances:
            for job in jobs:
                assert 0.0 < job.cpu_need <= 1.0
                assert 0.0 < job.mem_requirement <= 1.0

    def test_instance_generation_deterministic(self):
        first = generate_packing_instances(2, 5, seed=7)
        second = generate_packing_instances(2, 5, seed=7)
        assert first == second

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_packing_instances(0, 5)
        with pytest.raises(ConfigurationError):
            generate_packing_instances(5, 0)

    @pytest.fixture(scope="class")
    def ablation(self):
        return run_packing_ablation(
            num_nodes=8,
            num_instances=5,
            jobs_per_instance=10,
            seed=3,
            packers=("mcb8", "first-fit", "worst-fit"),
        )

    def test_one_score_per_packer(self, ablation):
        assert ablation.outcome.algorithms() == ["mcb8", "first-fit", "worst-fit"]
        assert len(ablation.outcome) == 3 * 5

    def test_yields_within_unit_interval(self, ablation):
        mean = ablation.outcome.aggregate("min_yield")
        worst = ablation.outcome.aggregate("min_yield", statistic="min")
        for packer in mean:
            assert 0.0 <= worst[packer] <= mean[packer] <= 1.0

    def test_bound_ratio_never_exceeds_one_plus_accuracy(self, ablation):
        assert max(ablation.outcome.aggregate("bound_ratio").values()) <= 1.02

    def test_ranking_sorted_by_mean_yield(self, ablation):
        mean = ablation.outcome.aggregate("min_yield")
        printed = [line.split()[0] for line in ablation.format().splitlines()[3:]]
        assert printed == sorted(mean, key=lambda packer: -mean[packer])

    def test_mcb8_competitive_with_first_fit(self, ablation):
        mean = ablation.outcome.aggregate("min_yield")
        assert mean["mcb8"] >= mean["first-fit"] - 0.05

    def test_mcb8_keeps_pace_with_first_and_best_fit(self):
        packers = ("mcb8", "first-fit", "best-fit")
        ablation = run_packing_ablation(
            num_nodes=16, num_instances=25, jobs_per_instance=24, seed=9, packers=packers
        )
        mean = ablation.outcome.aggregate("min_yield")
        assert mean["mcb8"] >= mean["first-fit"] - 0.02
        assert mean["mcb8"] >= mean["best-fit"] - 0.02

    def test_format_lists_packers(self, ablation):
        text = ablation.format()
        for name in ("mcb8", "first-fit", "worst-fit"):
            assert name in text

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ConfigurationError):
            run_packing_ablation(num_nodes=0)

    def test_empty_packers_rejected(self):
        with pytest.raises(ConfigurationError):
            run_packing_ablation(packers=())


class TestUtilizationStudy:
    @pytest.fixture(scope="class")
    def study(self):
        config = ExperimentConfig(
            cluster=Cluster(16, 4, 8.0),
            num_traces=1,
            num_jobs=30,
            load_levels=(0.5,),
            hpc2n_weeks=1,
            hpc2n_jobs_per_week=30,
        )
        return run_utilization_study(
            config,
            load=0.5,
            penalty_seconds=0.0,
            algorithms=("easy", "dynmcb8-asap-per-600"),
        )

    def test_one_profile_per_algorithm(self, study):
        assert [row.algorithm for row in study.outcome.rows] == [
            "easy", "dynmcb8-asap-per-600"
        ]

    def test_busy_nodes_within_cluster(self, study):
        for row in study.outcome.rows:
            assert 0.0 <= row.metric("mean_busy_nodes") <= 16
            assert 0 <= row.metric("peak_busy_nodes") <= 16

    def test_energy_savings_fraction_valid(self, study):
        # At load 0.5 a sizeable share of node-hours is idle, so powering idle
        # nodes down saves a non-trivial share under every algorithm.
        for row in study.outcome.rows:
            assert 0.05 < row.metric("energy_savings_fraction") <= 1.0

    def test_fairness_index_valid(self, study):
        for row in study.outcome.rows:
            assert 0.0 < row.metric("jain_stretch") <= 1.0

    def test_format_contains_headline_columns(self, study):
        text = study.format()
        assert "mean busy nodes" in text
        assert "Jain" in text

    def test_empty_algorithms_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            run_utilization_study(tiny_config, algorithms=())


class TestExtensionsComparison:
    @pytest.fixture(scope="class")
    def outcome(self):
        config = ExperimentConfig(
            cluster=Cluster(16, 4, 8.0),
            num_traces=1,
            num_jobs=30,
            load_levels=(0.5,),
            hpc2n_weeks=1,
            hpc2n_jobs_per_week=30,
        )
        return run_extensions_comparison(config, penalty_seconds=300.0)

    def test_default_algorithm_set_contains_extensions(self):
        assert "dynmcb8-asap-throttled-per-600" in EXTENSION_ALGORITHMS
        assert "dynmcb8-asap-weighted-per-600" in EXTENSION_ALGORITHMS
        assert "conservative" in EXTENSION_ALGORITHMS

    def test_stats_per_algorithm(self, outcome):
        stats = outcome.outcome.degradation_stats()
        assert set(stats) == set(EXTENSION_ALGORITHMS)
        for entry in stats.values():
            assert entry.average >= 1.0
            assert entry.maximum >= entry.average

    def test_extensions_stay_in_the_winners_league(self, outcome):
        # Throttling and weights change CPU shares, not placements: both stay
        # within 10x of the paper's winner, and EASY never beats it.
        stats = outcome.outcome.degradation_stats()
        winner = stats["dynmcb8-asap-per-600"].average
        assert stats["dynmcb8-asap-throttled-per-600"].average <= 10 * winner
        assert stats["dynmcb8-asap-weighted-per-600"].average <= 10 * winner
        assert stats["easy"].average >= winner

    @staticmethod
    def _best(outcome):
        averages = outcome.outcome.degradation_averages()
        return min(averages, key=averages.get)

    def test_best_algorithm_is_a_dfrs_variant(self, outcome):
        assert self._best(outcome).startswith("dynmcb8")

    def test_format_sorted_best_first(self, outcome):
        text = outcome.format()
        assert text.index(self._best(outcome)) < text.index("easy")

    def test_empty_algorithms_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            run_extensions_comparison(tiny_config, algorithms=())
