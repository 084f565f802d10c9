"""Benchmark: utilization, energy, and fairness study (paper §II-B2 remark).

Not a table or figure of the paper, but a quantification of its claim that a
yield-maximizing scheduler leaves idle nodes that can be powered down on an
under-subscribed cluster.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

pytestmark = pytest.mark.bench

from repro.campaign.studies import run_utilization_study


@pytest.mark.benchmark(group="utilization")
def test_utilization_energy_study(benchmark, bench_config, report_artifact):
    config = replace(bench_config, num_traces=1)
    algorithms = ("fcfs", "easy", "greedy-pmtn", "dynmcb8-asap-per-600")

    result = benchmark.pedantic(
        lambda: run_utilization_study(
            config, load=0.3, penalty_seconds=300.0, algorithms=algorithms
        ),
        rounds=1,
        iterations=1,
    )
    report_artifact("utilization", result.format())

    rows = result.outcome.rows
    assert [row.algorithm for row in rows] == list(algorithms)
    for row in rows:
        assert 0.0 <= row.metric("mean_busy_nodes") <= config.cluster.num_nodes
        # At an offered load of 0.3 a sizeable fraction of node-hours is idle,
        # so idle power-down must yield non-trivial savings for every algorithm.
        assert 0.05 < row.metric("energy_savings_fraction") <= 1.0
