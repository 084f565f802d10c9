"""The ``paper`` study: its three campaigns and the section it prints."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.campaign.executor import Campaign
from repro.campaign.studies import TABLE2_METRICS, ExperimentConfig, paper_scenarios, run_paper
from repro.core.cluster import Cluster
from repro.traces import HPC2N_CLUSTER

TINY = ExperimentConfig(
    cluster=Cluster(8, 4, 8.0),
    num_traces=1,
    num_jobs=20,
    load_levels=(0.4, 0.8),
    algorithms=("easy", "greedy-pmtn", "dynmcb8"),
    hpc2n_weeks=1,
    hpc2n_jobs_per_week=20,
    seed_base=5,
)


def test_the_columns_share_their_traces_models_and_algorithms():
    columns = paper_scenarios(TINY)
    assert list(columns) == ["scaled", "unscaled", "real"]
    scaled, unscaled, real = columns.values()
    assert scaled.source == unscaled.source
    assert [dict(c.sweep)["penalty"] for c in columns.values()] == [(300.0,)] * 3
    assert [axis for axis, _ in scaled.sweep] == ["penalty", "load"]
    assert unscaled.sweep == real.sweep == (("penalty", (300.0,)),)
    assert scaled.cluster == unscaled.cluster == TINY.cluster
    assert real.cluster == HPC2N_CLUSTER
    assert scaled.models == unscaled.models == real.models
    assert all(c.algorithms == TINY.algorithms for c in columns.values())
    assert all(c.penalty_seconds == 0.0 for c in columns.values())


@pytest.mark.parametrize("column", ["unscaled", "real"])
def test_the_penalty_axis_equals_penalty_seconds(column):
    """Table I's other two columns charge the penalty as the engine's
    ``penalty_seconds`` would (the grid-file test covers ``scaled``)."""
    scenario = paper_scenarios(TINY)[column]
    charged = Campaign().run(scenario)
    direct = Campaign().run(replace(scenario, models=None, penalty_seconds=300.0, sweep=()))
    rendered = ("max_stretch",) + TABLE2_METRICS
    assert [[row.metric(m) for m in rendered] for row in charged.rows] == [
        [row.metric(m) for m in rendered] for row in direct.rows
    ]


def test_a_batch_only_run_prints_no_ratio_line():
    text = run_paper(replace(TINY, algorithms=("fcfs", "easy"))).format()
    assert text.startswith("## Penalty 300 s\n\nThe most one run moves is 0.00 GB/s.\n")
    assert "Best batch" not in text


def test_the_no_penalty_panel():
    text = run_paper(replace(TINY, penalty_seconds=0.0)).format()
    assert text.startswith("## Penalty 0 s\n\nBest batch")
    assert "(no rescheduling penalty)" in text
    assert "0-second penalty" in text
