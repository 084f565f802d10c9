"""Shared fixtures for the benchmark harness.

Every benchmark times one layer (engine, platform and models seams, streaming,
serving, soak), prints its table and keeps it under ``benchmarks/results/``.
``REPRO_BENCH_SCALE=quick`` shrinks each one for CI.  The paper's own grid is
not a benchmark: it is ``examples/scenarios/paper_grid.json``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def report_artifact():
    """Print an artifact's text and persist it under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)

    def _report(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")

    return _report
