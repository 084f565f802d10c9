"""Removed packages stay removed, and the code they held keeps its contracts.

The ``experiments`` package folded into ``repro.campaign.studies`` and the
``workloads`` package into ``repro.traces``.  Nothing in the tree may import a
removed package, at any nesting (``ast.walk`` sees function-level and
``TYPE_CHECKING`` imports too), and neither directory may come back.  (The
dotted names are never spelled out here, so grepping the tree for one finds
offenders only.)
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, Tuple

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
REMOVED_PACKAGES = ("experiments", "workloads")


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


@pytest.mark.parametrize("package", REMOVED_PACKAGES)
def test_nothing_imports_a_removed_package(package):
    removed = f"repro.{package}"
    offenders = []
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for line, module in imported_modules(path):
                if module == removed or module.startswith(removed + "."):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{line} imports {module}")
    assert offenders == []


@pytest.mark.parametrize("package", REMOVED_PACKAGES)
def test_removed_package_does_not_exist(package):
    # A stale ``__pycache__`` left by an older checkout is not a package.
    assert not list((PACKAGE_ROOT / package).rglob("*.py"))


def test_traces_defers_no_import_of_its_own_generators():
    """One package, one import graph: every import in ``repro.traces`` is at
    the top of its file, except the two behind ``JobSource.transformed``
    (a base-class convenience that names its own subclass)."""
    deferred = []
    for path in sorted((PACKAGE_ROOT / "traces").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body:
                deferred.append((path.name, [alias.name for alias in node.names]))
    assert deferred == [
        ("source.py", ["TraceTransform"]),  # under TYPE_CHECKING
        ("source.py", ["TransformedSource"]),
    ]


def test_every_traces_def_is_fully_annotated():
    """``repro.traces.*`` is on mypy's strict list and mypy is not installed
    where the moved modules were checked; this is ``disallow_untyped_defs``."""
    offenders = []
    for path in sorted((PACKAGE_ROOT / "traces").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            spec = node.args
            arguments = spec.posonlyargs + spec.args + spec.kwonlyargs
            arguments += [extra for extra in (spec.vararg, spec.kwarg) if extra]
            bare = [
                argument.arg
                for argument in arguments
                if argument.annotation is None and argument.arg not in ("self", "cls")
            ]
            if bare or node.returns is None:
                offenders.append(f"{path.name}:{node.lineno} {node.name} {bare}")
    assert offenders == []
