"""Golden-output tests: the campaign-backed drivers must reproduce the
pre-refactor formatting byte-for-byte.

The files under ``golden/`` were captured from the hand-rolled driver
implementations (before the :mod:`repro.campaign` refactor) at the tiny
scale pinned in ``golden_config.py``.  Every simulation is deterministic
given its seeds, so any byte difference means the refactor changed either
the simulated numbers or the rendering — both regressions.

The timing study is the one exception: its wall-clock statistics depend on
the host, so the lines carrying measured seconds are masked before the
comparison and only the deterministic fields (observation count, interarrival
statistics, layout) are held to the golden file.

Every simulation-backed driver is held to its golden file twice: as built,
and with the ``invariants`` collector appended to each scenario it runs.
"""

from __future__ import annotations

import pathlib
import re
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from golden_config import (  # noqa: E402
    EXTENSIONS_GOLDEN_ALGORITHMS,
    GOLDEN_CONFIG,
    TABLE2_GOLDEN_ALGORITHMS,
)

from repro.campaign.executor import Campaign
from repro.experiments.extensions import run_extensions_comparison
from repro.experiments.figure1 import run_figure1
from repro.experiments.packing_ablation import run_packing_ablation
from repro.experiments.period_sweep import run_period_sweep
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.timing import run_timing_study
from repro.experiments.utilization_study import run_utilization_study

from ..campaign.executor_grid import with_collector

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")[:-1]


class TestGoldenOutputs:
    def test_figure1(self):
        assert run_figure1(GOLDEN_CONFIG).format() == golden("figure1.txt")

    def test_table1(self):
        assert run_table1(GOLDEN_CONFIG).format() == golden("table1.txt")

    def test_table2(self):
        result = run_table2(GOLDEN_CONFIG, algorithms=TABLE2_GOLDEN_ALGORITHMS)
        assert result.format() == golden("table2.txt")

    def test_extensions(self):
        result = run_extensions_comparison(
            GOLDEN_CONFIG, algorithms=EXTENSIONS_GOLDEN_ALGORITHMS
        )
        assert result.format() == golden("extensions.txt")

    def test_period_sweep(self):
        result = run_period_sweep(GOLDEN_CONFIG, periods=(300.0, 1200.0), load=0.5)
        assert result.format() == golden("period_sweep.txt")

    def test_packing_ablation(self):
        result = run_packing_ablation(
            num_nodes=8,
            num_instances=5,
            jobs_per_instance=10,
            seed=3,
            packers=("mcb8", "first-fit", "worst-fit"),
        )
        assert result.format() == golden("packing_ablation.txt")

    def test_utilization(self):
        result = run_utilization_study(
            GOLDEN_CONFIG, load=0.5, algorithms=("easy", "dynmcb8-asap-per-600")
        )
        assert result.format() == golden("utilization.txt")

    @staticmethod
    def _mask_wall_clock(text: str) -> str:
        """Blank the host-dependent values of the timing table."""
        masked_rows = (
            "mean scheduling time (s)",
            "max scheduling time (s)",
            "fraction of",
        )
        lines = []
        for line in text.splitlines():
            if any(marker in line for marker in masked_rows):
                line = re.sub(r"\d+\.\d+\s*$", "<wall-clock>", line)
            lines.append(line)
        return "\n".join(lines)

    def test_timing_masked(self):
        result = run_timing_study(GOLDEN_CONFIG, algorithm="dynmcb8")
        assert self._mask_wall_clock(result.format()) == self._mask_wall_clock(
            golden("timing.txt")
        )

    def test_timing_deterministic_fields(self):
        # The observation count and interarrival mean are seed-determined.
        result = run_timing_study(GOLDEN_CONFIG, algorithm="dynmcb8")
        golden_text = golden("timing.txt")
        assert str(result.num_observations) in golden_text
        assert f"{result.mean_interarrival_seconds:.4f}" in golden_text


class TestGoldenOutputsInvariantChecked(TestGoldenOutputs):
    """The same files, with every campaign run invariant-checked."""

    test_packing_ablation = None  # packs only: no campaign run to check
    test_timing_deterministic_fields = None  # compares no golden text

    @pytest.fixture(autouse=True)
    def checked_campaign_runs(self, monkeypatch):
        real_run = Campaign.run
        checked = []

        def checked_run(campaign, scenario):
            outcome = real_run(campaign, with_collector(scenario, "invariants"))
            checked.extend(row.metric("invariant_events_checked") for row in outcome.rows)
            return outcome

        monkeypatch.setattr(Campaign, "run", checked_run)
        yield
        assert checked and all(events > 0 for events in checked)
