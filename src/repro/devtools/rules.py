"""The :class:`Rule` contract and its registry.

Rules live in a :class:`repro.registry.Registry` like every other seam:
every rule has a stable code, registers itself at import time, and duplicate
registration is a configuration error.

Two rule scopes exist:

* ``file`` rules receive one parsed module at a time
  (:meth:`Rule.check_file`) — the AST lint rules;
* ``project`` rules run once per invocation over the whole checked set
  (:meth:`Rule.check_project`) — the cross-module registry audit, which
  must *import* the subsystems rather than parse them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Type

from ..exceptions import ConfigurationError
from ..registry import Registry
from .findings import Finding

__all__ = [
    "FileContext",
    "Rule",
    "register_rule",
    "available_rules",
    "rule_catalog",
    "create_rules",
]


@dataclass
class FileContext:
    """One parsed source file handed to every ``file``-scoped rule."""

    path: Path
    #: POSIX path relative to the project root (what findings report).
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def line_text(self, lineno: int) -> str:
        """Stripped source text of 1-based ``lineno`` (empty if out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.relpath,
            line=lineno,
            col=col + 1,
            code=code,
            message=message,
        )

    def package_parts(self) -> Tuple[str, ...]:
        """Path segments below the ``repro`` package, if any.

        ``src/repro/core/engine.py`` → ``("core", "engine.py")``; paths
        outside the package (tests, examples) return ``()`` so
        package-scoped rules skip them regardless of the caller's cwd.
        """
        parts = self.relpath.split("/")
        for index, part in enumerate(parts):
            if part == "repro":
                return tuple(parts[index + 1 :])
        return ()

    def in_packages(self, names: Iterable[str]) -> bool:
        """True when the file lives under one of the ``repro.<name>`` packages."""
        parts = self.package_parts()
        return bool(parts) and parts[0] in tuple(names)


class Rule:
    """Abstract static-analysis rule.

    Subclasses set ``code`` (stable, e.g. ``"DET101"``), ``name``,
    ``rationale`` (the project contract the rule encodes — surfaced by
    ``repro-dfrs dev rules``), implement :meth:`check_file` (scope
    ``"file"``) or :meth:`check_project` (scope ``"project"``), and
    register themselves with :func:`register_rule`.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    scope: str = "file"

    def check_file(self, context: FileContext) -> List[Finding]:
        """Findings for one parsed module (``file``-scoped rules)."""
        return []

    def check_project(self, contexts: Sequence[FileContext]) -> List[Finding]:
        """Findings for the whole checked set (``project``-scoped rules)."""
        return []


# --------------------------------------------------------------------------- #
# Registry                                                                     #
# --------------------------------------------------------------------------- #
RULES: Registry[Rule] = Registry("rule")
available_rules = RULES.available


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Register a rule class under its ``code`` (usable as a decorator)."""
    if not rule_class.code:
        raise ConfigurationError(f"rule {rule_class.__name__} has no code")
    return RULES.register(rule_class.code, rule_class)


def rule_catalog() -> List[Rule]:
    """One instance of every registered rule, sorted by code."""
    return [RULES.create(code) for code in available_rules()]


def _match_selector(code: str, selector: str) -> bool:
    """``DET`` selects the whole family, ``DET101`` one rule."""
    return code == selector or code.startswith(selector)


def create_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Instantiate the rules matching ``select`` minus ``ignore``.

    Selectors are full codes (``ORD201``) or family prefixes (``ORD``).
    Unknown selectors are configuration errors so typos fail loudly.
    """
    for selector in list(select or []) + list(ignore or []):
        if not any(_match_selector(code, selector) for code in available_rules()):
            raise ConfigurationError(
                f"unknown rule selector {selector!r}; known rules: "
                f"{', '.join(available_rules())}"
            )
    chosen: List[Rule] = []
    for code in available_rules():
        if select and not any(_match_selector(code, sel) for sel in select):
            continue
        if ignore and any(_match_selector(code, sel) for sel in ignore):
            continue
        chosen.append(RULES.create(code))
    return chosen
