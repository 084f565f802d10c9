"""Removed packages stay removed, and the code they held keeps its contracts.

The ``experiments`` package folded into ``repro.campaign.studies`` and the
``workloads`` package into ``repro.traces``.  Nothing in the tree may import a
removed package, at any nesting (``ast.walk`` sees function-level and
``TYPE_CHECKING`` imports too), and neither directory may come back.  (The
dotted names are never spelled out here, so grepping the tree for one finds
offenders only.)

Five import contracts between live packages are pinned the same way:
``repro.analysis`` never imports ``repro.campaign``; ``repro.metrics`` imports
nothing from ``repro`` but ``repro.exceptions`` and ``repro.registry`` (so
``repro.core`` can import it with no cycle); ``repro.packing`` imports nothing
from ``repro`` but ``repro.exceptions``, ``repro.obs.telemetry`` and
``repro.core.job`` (a leaf kernel under the schedulers and the studies);
``repro.serve`` never imports the
top-level CLI (trace paths resolve in ``repro.traces``); and the stretch
metrics have one home, ``repro.metrics.stretch``, with nothing left at their
old core path.
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


def _package_imports(package: str) -> Iterator[Tuple[str, int, str]]:
    """``(file, line, module)`` of every import in one ``repro`` package."""
    for path in sorted((PACKAGE_ROOT / package).rglob("*.py")):
        for line, module in imported_modules(path):
            yield path.name, line, module


def test_analysis_imports_nothing_from_campaign():
    """The campaign layer builds on ``repro.analysis``, never the reverse."""
    offenders = [
        entry
        for entry in _package_imports("analysis")
        if entry[2] == "repro.campaign" or entry[2].startswith("repro.campaign.")
    ]
    assert offenders == []


def test_metrics_imports_only_exceptions_and_registry_from_repro():
    """``repro.core`` imports ``repro.metrics``; anything more would be a cycle."""
    allowed = ("repro.exceptions", "repro.registry", "repro.metrics")
    offenders = [
        entry
        for entry in _package_imports("metrics")
        if entry[2].startswith("repro.")
        and not any(entry[2] == name or entry[2].startswith(name + ".") for name in allowed)
    ]
    assert offenders == []


def test_packing_imports_only_exceptions_telemetry_and_job_from_repro():
    """The packing kernel sits under the schedulers and the studies: it may
    not reach back into them, nor into the engine beyond the job constants."""
    allowed = ("repro.exceptions", "repro.obs.telemetry", "repro.core.job", "repro.packing")
    offenders = [
        entry
        for entry in _package_imports("packing")
        if entry[2].startswith("repro.")
        and not any(entry[2] == name or entry[2].startswith(name + ".") for name in allowed)
    ]
    assert offenders == []


def test_serve_imports_nothing_from_the_top_level_cli():
    """``repro.cli`` builds on ``repro.serve``; the serve commands resolve trace
    paths through ``repro.traces.load_trace_source``, never through the CLI."""
    offenders = [
        entry
        for entry in _package_imports("serve")
        if entry[2] == "repro.cli" or entry[2].startswith("repro.cli.")
    ]
    assert offenders == []


def test_stretch_metrics_live_only_in_repro_metrics():
    """The stretch metrics moved to ``repro.metrics.stretch``; no old path is left."""
    old = "repro.core." + "metrics"
    assert not (PACKAGE_ROOT / "core" / "metrics.py").exists()
    offenders = []
    for top in ("src", "tests", "benchmarks", "examples", "bench"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for line, module in imported_modules(path):
                if module == old or module.startswith(old + "."):
                    offenders.append(f"{path.relative_to(REPO_ROOT)}:{line} imports {module}")
    assert offenders == []


@pytest.mark.parametrize("package", ["traces", "metrics"])
def test_every_def_is_fully_annotated(package):
    """``repro.traces.*`` and ``repro.metrics.*`` are on mypy's strict list and
    mypy is not installed where the moved modules were checked; this is
    ``disallow_untyped_defs``."""
    offenders = []
    for path in sorted((PACKAGE_ROOT / package).glob("*.py")):
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
