"""The ``experiments`` package is gone: the studies live in ``repro.campaign.studies``.

Nothing in the tree may import the removed package, at any nesting
(``ast.walk`` sees function-level and ``TYPE_CHECKING`` imports too), and the
directory must not come back.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
#: In two pieces, so grepping the tree for the dotted name finds offenders only.
REMOVED = ".".join(("repro", "experiments"))


def imported_modules(path: pathlib.Path) -> Iterator[Tuple[int, str]]:
    """``(line, absolute dotted name)`` of everything a file imports."""
    package: Tuple[str, ...] = ()
    if PACKAGE_ROOT in path.parents:
        package = ("repro",) + path.relative_to(PACKAGE_ROOT).parts[:-1]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = package[: len(package) - node.level + 1] if node.level else ()
            base = ".".join(prefix + ((node.module,) if node.module else ()))
            yield from ((node.lineno, f"{base}.{alias.name}") for alias in node.names)


def test_nothing_imports_the_removed_experiments_package():
    offenders = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for line, module in imported_modules(path):
                if module == REMOVED or module.startswith(REMOVED + "."):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{line} imports {module}")
    assert offenders == []


def test_experiments_package_does_not_exist():
    # A stale ``__pycache__`` left by an older checkout is not a package.
    assert not list((PACKAGE_ROOT / "experiments").rglob("*.py"))
