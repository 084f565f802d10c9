"""Rewrite every rendered artifact: the golden study outputs (see
golden_config.py for the rules) and ``results/paper_grid.md``, rendered from
``results/paper_grid.json`` (rewrite that file first after a new grid run).

``PYTHONPATH=src python tests/experiments/regen_golden.py``
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from golden_config import GOLDEN_CONFIG, GOLDEN_DIR, GOLDEN_KWARGS, golden_path

from repro.campaign.studies import STUDIES, render_paper_grid

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, study in STUDIES.items():
        text = study.run(GOLDEN_CONFIG, **GOLDEN_KWARGS[name]).format()
        golden_path(name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {golden_path(name).name} ({len(text)} chars)")
    payload = json.loads((RESULTS / "paper_grid.json").read_text(encoding="utf-8"))
    (RESULTS / "paper_grid.md").write_text(render_paper_grid(payload), encoding="utf-8")
    print(f"wrote {RESULTS / 'paper_grid.md'}")


if __name__ == "__main__":
    main()
