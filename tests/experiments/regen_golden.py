"""Regenerate the golden study outputs (see golden_config.py for the rules)."""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from golden_config import GOLDEN_CONFIG, GOLDEN_DIR, GOLDEN_KWARGS, golden_path

from repro.campaign.studies import STUDIES


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, study in STUDIES.items():
        text = study.run(GOLDEN_CONFIG, **GOLDEN_KWARGS[name]).format()
        golden_path(name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {golden_path(name).name} ({len(text)} chars)")


if __name__ == "__main__":
    main()
