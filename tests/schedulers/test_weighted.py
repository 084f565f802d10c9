"""Tests for weighted max-min yield sharing and the weighted scheduler."""

from __future__ import annotations

import hashlib

import pytest

from repro.core import Cluster, JobSpec, SimulationConfig, Simulator
from repro.core.cluster import CAPACITY_EPSILON
from repro.core.context import JobView
from repro.core.job import JobState, MINIMUM_YIELD
from repro.core.penalties import ReschedulingPenaltyModel
from repro.exceptions import ConfigurationError
from repro.schedulers import WeightedYieldScheduler, create_scheduler
from repro.schedulers.dfrs.weighted import (
    inverse_size_weight,
    uniform_weight,
    weighted_fair_yields,
    weighted_improve_yield,
)
from repro.schedulers.dfrs.yield_opt import fair_yields, improve_average_yield
from repro.serve import PlacementLogObserver
from repro.traces.lublin import LublinWorkloadGenerator


def _view(job_id, tasks=1, cpu=0.5, mem=0.2):
    return JobView(
        job_id=job_id,
        num_tasks=tasks,
        cpu_need=cpu,
        mem_requirement=mem,
        submit_time=0.0,
        state=JobState.PENDING,
        virtual_time=0.0,
        assignment=None,
        current_yield=0.0,
        last_assignment=None,
    )


CLUSTER = Cluster(num_nodes=4, cores_per_node=4, node_memory_gb=8.0)


class TestWeightFunctions:
    def test_uniform_weight(self):
        assert uniform_weight(_view(0, tasks=10)) == 1.0

    def test_inverse_size_weight(self):
        assert inverse_size_weight(_view(0, tasks=4)) == pytest.approx(0.25)
        assert inverse_size_weight(_view(1, tasks=1)) == 1.0


class TestWeightedFairYields:
    def test_empty_placements(self):
        assert weighted_fair_yields({}, {}, CLUSTER, {}) == {}

    def test_uniform_weights_match_fair_yields(self):
        jobs = {0: _view(0, cpu=1.0), 1: _view(1, cpu=1.0), 2: _view(2, cpu=1.0)}
        placements = {0: (0,), 1: (0,), 2: (0,)}
        weights = {job_id: 1.0 for job_id in placements}
        weighted = weighted_fair_yields(placements, jobs, CLUSTER, weights)
        plain = fair_yields(placements, jobs, CLUSTER)
        for job_id in placements:
            assert weighted[job_id] == pytest.approx(plain[job_id], abs=0.02)

    def test_higher_weight_gets_higher_yield_under_contention(self):
        jobs = {0: _view(0, cpu=1.0), 1: _view(1, cpu=1.0)}
        placements = {0: (0,), 1: (0,)}
        weights = {0: 3.0, 1: 1.0}
        yields = weighted_fair_yields(placements, jobs, CLUSTER, weights)
        assert yields[0] > yields[1]
        assert yields[0] == pytest.approx(0.75, abs=0.02)
        assert yields[1] == pytest.approx(0.25, abs=0.02)

    def test_capacity_respected_on_every_node(self):
        jobs = {
            0: _view(0, tasks=2, cpu=0.9),
            1: _view(1, tasks=2, cpu=0.8),
            2: _view(2, tasks=1, cpu=1.0),
        }
        placements = {0: (0, 1), 1: (0, 1), 2: (1,)}
        weights = {0: 2.0, 1: 1.0, 2: 5.0}
        yields = weighted_fair_yields(placements, jobs, CLUSTER, weights)
        allocated = [0.0] * CLUSTER.num_nodes
        for job_id, nodes in placements.items():
            for node in nodes:
                allocated[node] += jobs[job_id].cpu_need * yields[job_id]
        assert all(total <= 1.0 + 1e-6 for total in allocated)

    def test_the_yield_floor_does_not_overcommit_a_node(self):
        # The wide light job bisects to a yield just under MINIMUM_YIELD; lifted
        # to the floor after the search, it overcommitted node 0 by 1e-4.
        cluster = Cluster(100, 4, 8.0)
        jobs = {1: _view(1, cpu=1.0), 2: _view(2, tasks=100, cpu=1.0)}
        placements = {1: (0,), 2: tuple(range(100))}
        yields = weighted_fair_yields(placements, jobs, cluster, {1: 1.0, 2: 0.01})
        assert yields[2] == MINIMUM_YIELD
        assert yields[1] + yields[2] <= 1.0 + CAPACITY_EPSILON

    def test_uncontended_jobs_reach_full_yield(self):
        jobs = {0: _view(0, cpu=0.3), 1: _view(1, cpu=0.3)}
        placements = {0: (0,), 1: (1,)}
        weights = {0: 1.0, 1: 10.0}
        yields = weighted_fair_yields(placements, jobs, CLUSTER, weights)
        assert yields[0] == pytest.approx(1.0)
        assert yields[1] == pytest.approx(1.0)

    def test_invalid_weight_rejected(self):
        jobs = {0: _view(0)}
        with pytest.raises(ConfigurationError):
            weighted_fair_yields({0: (0,)}, jobs, CLUSTER, {0: 0.0})
        with pytest.raises(ConfigurationError):
            weighted_fair_yields({0: (0,)}, jobs, CLUSTER, {0: -1.0})

    def test_yields_within_bounds(self):
        jobs = {i: _view(i, cpu=1.0) for i in range(5)}
        placements = {i: (0,) for i in range(5)}
        weights = {i: float(i + 1) for i in range(5)}
        yields = weighted_fair_yields(placements, jobs, CLUSTER, weights)
        for value in yields.values():
            assert MINIMUM_YIELD <= value <= 1.0


class TestWeightedImproveYield:
    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_weight_rejected(self, weight):
        """Checked before the pass, also when every yield is saturated."""
        with pytest.raises(ConfigurationError):
            weighted_improve_yield({0: (0,)}, {0: 1.0}, {0: _view(0)}, CLUSTER, {0: weight})

    def test_never_decreases_yields(self):
        jobs = {0: _view(0, cpu=0.4), 1: _view(1, cpu=0.4)}
        placements = {0: (0,), 1: (0,)}
        base = {0: 0.5, 1: 0.5}
        improved = weighted_improve_yield(placements, base, jobs, CLUSTER, {0: 1.0, 1: 2.0})
        assert improved[0] >= base[0]
        assert improved[1] >= base[1]

    def test_leftover_goes_to_heavier_weight_first(self):
        # Node 0 has 0.4 spare CPU; both jobs could take it, the heavier one wins.
        jobs = {0: _view(0, cpu=0.6), 1: _view(1, cpu=0.6)}
        placements = {0: (0,), 1: (0,)}
        base = {0: 0.5, 1: 0.5}
        improved = weighted_improve_yield(placements, base, jobs, CLUSTER, {0: 1.0, 1: 5.0})
        assert improved[1] > improved[0]

    def test_matches_unweighted_heuristic_shape_with_uniform_weights(self):
        jobs = {0: _view(0, cpu=0.5), 1: _view(1, cpu=0.3)}
        placements = {0: (0,), 1: (1,)}
        base = fair_yields(placements, jobs, CLUSTER)
        weighted = weighted_improve_yield(
            placements, base, jobs, CLUSTER, {0: 1.0, 1: 1.0}
        )
        plain = improve_average_yield(placements, base, jobs, CLUSTER)
        assert weighted == pytest.approx(plain)

    def test_capacity_never_violated(self):
        jobs = {i: _view(i, cpu=0.9) for i in range(3)}
        placements = {0: (0,), 1: (0,), 2: (1,)}
        base = {0: 0.3, 1: 0.3, 2: 0.5}
        improved = weighted_improve_yield(
            placements, base, jobs, CLUSTER, {0: 1.0, 1: 2.0, 2: 3.0}
        )
        allocated = [0.0] * CLUSTER.num_nodes
        for job_id, nodes in placements.items():
            for node in nodes:
                allocated[node] += jobs[job_id].cpu_need * improved[job_id]
        assert all(total <= 1.0 + 1e-6 for total in allocated)


class TestWeightedYieldScheduler:
    def _specs(self):
        return [
            JobSpec(0, 0.0, 4, 1.0, 0.2, 400.0),
            JobSpec(1, 10.0, 1, 1.0, 0.2, 100.0),
            JobSpec(2, 20.0, 1, 1.0, 0.2, 100.0),
            JobSpec(3, 30.0, 2, 1.0, 0.2, 200.0),
        ]

    def test_registry_construction(self):
        scheduler = create_scheduler("dynmcb8-asap-weighted-per-600")
        assert isinstance(scheduler, WeightedYieldScheduler)
        assert scheduler.period == 600.0
        assert "weighted" in scheduler.name

    def test_rejects_non_callable_weight_function(self):
        with pytest.raises(ConfigurationError):
            WeightedYieldScheduler(weight_function="not-callable")

    def test_simulation_completes_all_jobs(self):
        cluster = Cluster(num_nodes=2, cores_per_node=4, node_memory_gb=8.0)
        result = Simulator(
            cluster, create_scheduler("dynmcb8-asap-weighted-per-600"), SimulationConfig()
        ).run(self._specs())
        assert result.num_jobs == 4

    def test_uniform_weights_match_plain_asap_per(self):
        cluster = Cluster(num_nodes=2, cores_per_node=4, node_memory_gb=8.0)
        weighted = Simulator(
            cluster,
            WeightedYieldScheduler(600.0, weight_function=uniform_weight),
            SimulationConfig(),
        ).run(self._specs())
        plain = Simulator(
            cluster, create_scheduler("dynmcb8-asap-per-600"), SimulationConfig()
        ).run(self._specs())
        assert weighted.max_stretch == pytest.approx(plain.max_stretch, rel=0.05)

    def test_small_job_favoured_by_inverse_size_weights(self):
        # Under contention the 1-task jobs should fare no worse (in stretch)
        # with inverse-size weighting than with plain fair sharing.
        cluster = Cluster(num_nodes=2, cores_per_node=4, node_memory_gb=8.0)
        weighted = Simulator(
            cluster,
            WeightedYieldScheduler(600.0, weight_function=inverse_size_weight),
            SimulationConfig(),
        ).run(self._specs())
        plain = Simulator(
            cluster, create_scheduler("dynmcb8-asap-per-600"), SimulationConfig()
        ).run(self._specs())
        small_weighted = max(
            weighted.record_for(1).stretch, weighted.record_for(2).stretch
        )
        small_plain = max(plain.record_for(1).stretch, plain.record_for(2).stretch)
        assert small_weighted <= small_plain + 1e-6


#: sha256 of the placement log of ``dynmcb8-asap-weighted-per-600`` (the
#: default inverse-size weights) on small Lublin runs, keyed by (nodes, jobs,
#: seed, penalty seconds).  Written at commit bbb506a, while the weighted
#: improver was still its own rescan; there is no regeneration script.
WEIGHTED_PLACEMENT_LOGS = {
    (16, 40, 11, 300.0): "1c80e570fa16a5e0dd6b3e8630bc10074cc896e009f75b564e412bd96ddccc18",
    (8, 40, 7, 0.0): "d9b44e8f2745c95946fee4a40722cbee69aebb727ecaac5e692a8dfb6e5b32be",
}


@pytest.mark.parametrize("case", sorted(WEIGHTED_PLACEMENT_LOGS))
def test_weighted_placement_log_pin(case):
    nodes, num_jobs, seed, penalty = case
    cluster = Cluster(num_nodes=nodes, cores_per_node=4, node_memory_gb=8.0)
    specs = list(LublinWorkloadGenerator(cluster).generate(num_jobs, seed=seed).jobs)
    observer = PlacementLogObserver()
    Simulator(
        cluster,
        create_scheduler("dynmcb8-asap-weighted-per-600"),
        SimulationConfig(penalty_model=ReschedulingPenaltyModel(penalty)),
        observers=[observer],
    ).run(specs)
    digest = hashlib.sha256(observer.to_json_bytes()).hexdigest()
    assert digest == WEIGHTED_PLACEMENT_LOGS[case]
