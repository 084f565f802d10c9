"""Rewrite ``results/paper_grid.md`` from ``results/paper_grid.json``.

``PYTHONPATH=src python tests/campaign/regen_paper_grid.py`` after a new grid run.
"""

import json
import pathlib

from repro.campaign.studies import render_paper_grid

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"
payload = json.loads((RESULTS / "paper_grid.json").read_text(encoding="utf-8"))
(RESULTS / "paper_grid.md").write_text(render_paper_grid(payload), encoding="utf-8")
print(f"wrote {RESULTS / 'paper_grid.md'}")
