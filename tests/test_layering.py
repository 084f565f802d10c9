"""``repro.experiments`` is the top of the stack: nothing below imports it.

The campaign layer used to reach back into the drivers through function-level
and ``TYPE_CHECKING`` imports; ``ast.walk`` sees an import at any nesting.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, Tuple

PACKAGE_ROOT = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
ALLOWED = {"cli.py", "__init__.py"}


def imported_modules(path: pathlib.Path) -> Iterator[Tuple[int, str]]:
    """``(line, absolute dotted name)`` of everything a file imports."""
    package = ("repro",) + path.relative_to(PACKAGE_ROOT).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = package[: len(package) - node.level + 1] if node.level else ()
            base = ".".join(prefix + ((node.module,) if node.module else ()))
            yield from ((node.lineno, f"{base}.{alias.name}") for alias in node.names)


def test_nothing_below_the_drivers_imports_them():
    offenders = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT)
        if relative.parts[0] == "experiments" or str(relative) in ALLOWED:
            continue
        for line, module in imported_modules(path):
            if module == "repro.experiments" or module.startswith("repro.experiments."):
                offenders.append(f"{relative}:{line} imports {module}")
    assert offenders == []


def test_experiments_package_holds_only_the_runner_and_the_eight_drivers():
    assert sorted(path.name for path in (PACKAGE_ROOT / "experiments").glob("*.py")) == [
        "__init__.py", "extensions.py", "figure1.py", "packing_ablation.py",
        "period_sweep.py", "runner.py", "table1.py", "table2.py", "timing.py",
        "utilization_study.py",
    ]
