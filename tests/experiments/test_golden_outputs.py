"""Golden-output tests: every study must reproduce its committed table
byte-for-byte.

The files under ``golden/`` were captured from the hand-rolled driver
implementations (before the :mod:`repro.campaign` refactor; ``compare.txt``
from the CLI's own renderer at 6d8a468) at the tiny scale pinned in
``golden_config.py``.  Every simulation is deterministic given its seeds, so
any byte difference means a change moved either the simulated numbers or the
rendering — both regressions.

The tests iterate :data:`repro.campaign.studies.STUDIES`: a study without a
``GOLDEN_KWARGS`` entry or a golden file fails here.  The timing study's
wall-clock statistics depend on the host, so the rows carrying measured
seconds are masked before the comparison and only the deterministic rows
(observation count, mean inter-arrival time, layout) are held to the file.

Every simulation-backed study is held to its golden file twice: as built,
and with the ``invariants`` collector appended to each scenario it runs.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from golden_config import (  # noqa: E402
    GOLDEN_CONFIG,
    GOLDEN_DIR,
    GOLDEN_KWARGS,
    WALL_CLOCK_ROWS,
    golden_path,
    mask_wall_clock,
)

from repro.campaign.executor import Campaign
from repro.campaign.studies import STUDIES, StudyReport

from ..campaign.executor_grid import with_collector


def run_golden(study: str) -> StudyReport:
    """Run one study at the golden scale and hold its text to its file."""
    report = STUDIES[study].run(GOLDEN_CONFIG, **GOLDEN_KWARGS[study])
    expected = golden_path(study).read_text(encoding="utf-8")[:-1]
    assert mask_wall_clock(report.format()) == mask_wall_clock(expected)
    return report


def plain(study: str):
    def test(self):
        run_golden(study)

    return test


def invariant_checked(study: str):
    def test(self, monkeypatch):
        real_run = Campaign.run
        checked = []

        def checked_run(campaign, scenario):
            outcome = real_run(campaign, with_collector(scenario, "invariants"))
            checked.extend(row.metric("invariant_events_checked") for row in outcome.rows)
            return outcome

        monkeypatch.setattr(Campaign, "run", checked_run)
        report = run_golden(study)
        # A simulated campaign's spec names its algorithms; the packing
        # ablation only packs, so it has no campaign run to check.
        simulated = [
            outcome for outcome in report.campaigns if "algorithms" in outcome.scenario
        ]
        if not simulated:
            pytest.skip("no simulation behind this study")
        assert len(checked) == sum(len(outcome.rows) for outcome in simulated)
        assert all(events > 0 for events in checked)

    return test


def method_name(study: str) -> str:
    """``test_<study>``, plus ``_masked`` when its file carries wall-clock rows
    — the ids these tests had as hand-written methods."""
    path = golden_path(study)
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    suffix = "_masked" if any(marker in text for marker in WALL_CLOCK_ROWS) else ""
    return f"test_{study.replace('-', '_')}{suffix}"


class TestGoldenOutputs:
    """One ``test_<study>`` per :data:`STUDIES` entry (attached below)."""


class TestGoldenOutputsInvariantChecked:
    """The same files, with every campaign run invariant-checked."""


for _study in STUDIES:
    setattr(TestGoldenOutputs, method_name(_study), plain(_study))
    setattr(TestGoldenOutputsInvariantChecked, method_name(_study), invariant_checked(_study))


def test_every_golden_file_belongs_to_a_study():
    assert sorted(path.name for path in GOLDEN_DIR.glob("*.txt")) == sorted(
        golden_path(study).name for study in STUDIES
    )
