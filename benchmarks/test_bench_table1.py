"""Benchmark E3: Table I — degradation statistics per workload family.

Reproduces Table I: average / standard deviation / maximum degradation factor
for every algorithm on (i) the scaled synthetic traces, (ii) the unscaled
synthetic traces, and (iii) the real-world (HPC2N-like) 1-week segments, all
with the 5-minute rescheduling penalty.  Expected shape (paper §V): FCFS and
EASY in the hundreds, GREEDY better but still bad, GREEDY-PMTN(-MIGR) in the
single digits to tens, the periodic MCB8 variants in the single digits, and
DYNMCB8-ASAP-PER the best on the maximum (worst-trace) statistic.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.bench

from repro.campaign.studies import TABLE1_COLUMNS, run_table1


@pytest.mark.benchmark(group="table1")
def test_table1_degradation_statistics(benchmark, bench_config, report_artifact):
    result = benchmark.pedantic(
        lambda: run_table1(bench_config, penalty_seconds=300.0),
        rounds=1,
        iterations=1,
    )
    report_artifact("table1_degradation", result.format())

    columns = [outcome.degradation_stats() for outcome in result.campaigns]
    scaled = columns[TABLE1_COLUMNS.index("scaled")]
    # Batch scheduling is the worst family on the scaled synthetic traces.
    batch_avg = min(scaled["fcfs"].average, scaled["easy"].average)
    dfrs_preemptive = [
        name for name in scaled if name not in ("fcfs", "easy", "greedy")
    ]
    best_dfrs_avg = min(scaled[name].average for name in dfrs_preemptive)
    assert best_dfrs_avg <= batch_avg
    # Every column reports a best algorithm with average degradation >= 1.
    for column in columns:
        assert min(stats.average for stats in column.values()) >= 1.0 - 1e-9
