"""Benchmark E1: Figure 1(a) — degradation factor vs. load, no penalty.

Reproduces the left panel of Figure 1: the average stretch degradation factor
of every algorithm as a function of the offered load when preemptions and
migrations are free.  Expected shape (paper §V): DYNMCB8 is the best
(degradation ≈ 1), the periodic MCB8 variants follow, the preemptive greedy
algorithms are an order of magnitude behind, and FCFS/EASY/GREEDY trail by
orders of magnitude.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.bench

from repro.campaign.studies import run_figure1


@pytest.mark.benchmark(group="figure1")
def test_figure1a_no_penalty(benchmark, bench_config, report_artifact):
    result = benchmark.pedantic(
        lambda: run_figure1(bench_config, penalty_seconds=0.0),
        rounds=1,
        iterations=1,
    )
    report_artifact("figure1a_no_penalty", result.format())

    # The paper's headline: DFRS (with preemption) beats batch scheduling at
    # every load level, usually by orders of magnitude.
    for load in bench_config.load_levels:
        averages = result.outcome.degradation_averages(load=load)
        batch_best = min(averages["fcfs"], averages["easy"])
        dfrs_best = min(
            value
            for name, value in averages.items()
            if name not in ("fcfs", "easy", "greedy")
        )
        assert dfrs_best <= batch_best
