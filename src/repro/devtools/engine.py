"""The check driver: collect files, run rules, apply pragmas."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..exceptions import ConfigurationError
from .astutils import noqa_codes
from .findings import Finding
from .rules import FileContext, Rule, create_rules

__all__ = ["CheckResult", "check_paths", "collect_files"]

#: Directories never worth parsing.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hg", "build", "dist", ".eggs"})


@dataclass
class CheckResult:
    """Outcome of one ``dev check`` invocation."""

    #: Violations not suppressed by a pragma — any one fails the check.
    findings: List[Finding] = field(default_factory=list)
    #: Count of findings suppressed by ``# repro: noqa`` pragmas.
    suppressed: int = 0
    checked_files: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """The ``.py`` files under ``paths``, sorted for deterministic output."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigurationError(f"no such file or directory: {path}")
        if path.is_file():
            if path.suffix == ".py":
                files.append(path)
            continue
        for candidate in path.rglob("*.py"):
            if any(part in _SKIP_DIRS or part.startswith(".") for part in candidate.parts):
                continue
            files.append(candidate)
    return sorted(set(files))


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse(path: Path, root: Path) -> Union[FileContext, Finding]:
    source = path.read_text(encoding="utf-8")
    relpath = _relpath(path, root)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return Finding(
            path=relpath,
            line=error.lineno or 1,
            col=(error.offset or 0) + 1,
            code="E999",
            message=f"syntax error: {error.msg}",
        )
    return FileContext(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        lines=source.splitlines(),
    )


def _apply_noqa(findings: Sequence[Finding], contexts: Dict[str, FileContext]) -> tuple:
    """Drop findings whose source line carries a matching pragma."""
    kept: List[Finding] = []
    suppressed = 0
    for finding in findings:
        context = contexts.get(finding.path)
        line = context.line_text(finding.line) if context is not None else ""
        codes = noqa_codes(line)
        if codes is None:
            kept.append(finding)
            continue
        if not codes or any(finding.code == c or finding.code.startswith(c) for c in codes):
            suppressed += 1
        else:
            kept.append(finding)
    return kept, suppressed


def check_paths(
    paths: Sequence[Union[str, Path]],
    *,
    project_root: Optional[Union[str, Path]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> CheckResult:
    """Run the rule pack over ``paths``.

    ``project_root`` anchors the relative paths findings report (default:
    the current working directory).  ``rules`` overrides the registry
    selection — the test suite injects single rules this way.
    """
    root = Path(project_root) if project_root is not None else Path.cwd()
    active_rules = list(rules) if rules is not None else create_rules(select, ignore)
    file_rules = [rule for rule in active_rules if rule.scope == "file"]
    project_rules = [rule for rule in active_rules if rule.scope == "project"]

    contexts: List[FileContext] = []
    raw_findings: List[Finding] = []
    for path in collect_files(paths):
        parsed = _parse(path, root)
        if isinstance(parsed, Finding):
            raw_findings.append(parsed)
            continue
        contexts.append(parsed)
        for rule in file_rules:
            raw_findings.extend(rule.check_file(parsed))
    for rule in project_rules:
        raw_findings.extend(rule.check_project(contexts))

    by_path = {context.relpath: context for context in contexts}
    kept, suppressed = _apply_noqa(sorted(raw_findings), by_path)
    return CheckResult(
        findings=kept, suppressed=suppressed, checked_files=len(contexts)
    )
