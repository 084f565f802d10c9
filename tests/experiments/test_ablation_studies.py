"""Tests for the ablation and extension experiment harnesses."""

from __future__ import annotations

import pytest

from repro.campaign.studies import ExperimentConfig
from repro.core import Cluster
from repro.exceptions import ConfigurationError
from repro.experiments import (
    EXTENSION_ALGORITHMS,
    generate_packing_instances,
    run_extensions_comparison,
    run_packing_ablation,
    run_period_sweep,
    run_utilization_study,
)


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
        assert len(sweep.points) == 2
        assert {point.period_seconds for point in sweep.points} == {300.0, 1200.0}

    def test_stretches_are_at_least_one(self, sweep):
        for point in sweep.points:
            assert point.mean_max_stretch >= 1.0
            assert point.max_max_stretch >= point.mean_max_stretch

    def test_cost_rates_non_negative(self, sweep):
        for point in sweep.points:
            assert point.preemptions_per_hour >= 0.0
            assert point.migrations_per_hour >= 0.0

    def test_best_period_is_one_of_the_swept_values(self, sweep):
        assert sweep.best_period() in (300.0, 1200.0)

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
        assert {score.packer for score in ablation.scores} == {
            "mcb8",
            "first-fit",
            "worst-fit",
        }

    def test_yields_within_unit_interval(self, ablation):
        for score in ablation.scores:
            assert 0.0 <= score.worst_yield <= score.mean_yield <= 1.0

    def test_bound_ratio_never_exceeds_one_plus_accuracy(self, ablation):
        for score in ablation.scores:
            assert score.mean_bound_ratio <= 1.02

    def test_ranking_sorted_by_mean_yield(self, ablation):
        ranking = ablation.ranking()
        means = [ablation.score_for(name).mean_yield for name in ranking]
        assert means == sorted(means, reverse=True)

    def test_mcb8_competitive_with_first_fit(self, ablation):
        mcb8 = ablation.score_for("mcb8").mean_yield
        ffd = ablation.score_for("first-fit").mean_yield
        assert mcb8 >= ffd - 0.05

    def test_score_for_unknown_packer_rejected(self, ablation):
        with pytest.raises(ConfigurationError):
            ablation.score_for("nonexistent")

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
        assert {profile.algorithm for profile in study.profiles} == {
            "easy",
            "dynmcb8-asap-per-600",
        }

    def test_busy_nodes_within_cluster(self, study):
        for profile in study.profiles:
            assert 0.0 <= profile.mean_busy_nodes <= study.num_nodes
            assert 0 <= profile.peak_busy_nodes <= study.num_nodes

    def test_energy_savings_fraction_valid(self, study):
        for profile in study.profiles:
            assert 0.0 <= profile.energy.savings_fraction <= 1.0

    def test_fairness_index_valid(self, study):
        for profile in study.profiles:
            assert 0.0 < profile.fairness.jain_stretch <= 1.0

    def test_profile_for_lookup(self, study):
        assert study.profile_for("easy").algorithm == "easy"
        with pytest.raises(ConfigurationError):
            study.profile_for("nonexistent")

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
        return run_extensions_comparison(
            config,
            algorithms=("easy", "dynmcb8-asap-per-600", "dynmcb8-asap-weighted-per-600"),
            penalty_seconds=300.0,
        )

    def test_default_algorithm_set_contains_extensions(self):
        assert "dynmcb8-asap-throttled-per-600" in EXTENSION_ALGORITHMS
        assert "dynmcb8-asap-weighted-per-600" in EXTENSION_ALGORITHMS
        assert "conservative" in EXTENSION_ALGORITHMS

    def test_stats_per_algorithm(self, outcome):
        assert set(outcome.stats) == {
            "easy",
            "dynmcb8-asap-per-600",
            "dynmcb8-asap-weighted-per-600",
        }
        for stats in outcome.stats.values():
            assert stats.average >= 1.0
            assert stats.maximum >= stats.average

    def test_best_algorithm_is_a_dfrs_variant(self, outcome):
        assert outcome.best_algorithm().startswith("dynmcb8")

    def test_format_sorted_best_first(self, outcome):
        text = outcome.format()
        best = outcome.best_algorithm()
        assert text.index(best) < text.index("easy")

    def test_empty_algorithms_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            run_extensions_comparison(tiny_config, algorithms=())
