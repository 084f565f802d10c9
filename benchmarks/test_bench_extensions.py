"""Benchmark: extension schedulers vs. the paper's best algorithm.

Not a paper artifact — this quantifies the follow-up mechanisms the paper's
conclusion sketches (long-job throttling, user priorities) plus the
conservative-backfilling baseline, using the same degradation-factor
methodology as Table I.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

pytestmark = pytest.mark.bench

from repro.campaign.studies import EXTENSION_ALGORITHMS, run_extensions_comparison


@pytest.mark.benchmark(group="extensions")
def test_extensions_comparison(benchmark, bench_config, report_artifact):
    config = replace(
        bench_config,
        num_traces=min(bench_config.num_traces, 2),
        load_levels=(0.5, 0.7),
    )

    result = benchmark.pedantic(
        lambda: run_extensions_comparison(config, penalty_seconds=300.0),
        rounds=1,
        iterations=1,
    )
    report_artifact("extensions", result.format())

    # Every DFRS-based extension must stay far ahead of the batch baselines,
    # and the throttled/weighted variants must stay in the same league as the
    # paper's winner (they change CPU shares, not placements).
    stats = result.outcome.degradation_stats()
    for name in EXTENSION_ALGORITHMS:
        assert name in stats
    winner = stats["dynmcb8-asap-per-600"].average
    assert stats["dynmcb8-asap-throttled-per-600"].average <= 10 * winner
    assert stats["dynmcb8-asap-weighted-per-600"].average <= 10 * winner
    assert stats["easy"].average >= winner
