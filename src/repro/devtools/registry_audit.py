"""REG601: the cross-module registry audit.

Unlike the AST rules this one *imports* the subsystems: the contract it
checks — every spec class (``to_dict`` + a concrete ``kind``) is resolvable
from its subsystem's ``type`` registry, and every registered class answers
to the name it was registered under — spans modules, so parsing one file at
a time cannot see it.  Findings anchor at the offending ``class`` statement
and are only reported for files inside the checked path set, so
``dev check tests`` does not re-report src-side problems.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple, Type

from ..registry import Registry, all_registries
from .findings import Finding
from .rules import FileContext, Rule, register_rule

__all__ = ["RegistryCompletenessRule"]


def _import_every_module() -> None:
    """Import all of ``repro`` so every registry and spec class exists."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)


def _subclasses(base: Type[Any]) -> Iterator[Type[Any]]:
    """Every direct and indirect subclass of ``base`` defined so far."""
    for cls in base.__subclasses__():
        yield cls
        yield from _subclasses(cls)


def _spec_classes(base: Type[Any]) -> List[Type[Any]]:
    """Classes bound by the registry contract: concrete ``kind`` + ``to_dict``."""
    bound = set()
    for cls in _subclasses(base):
        kind = inspect.getattr_static(cls, "kind", None)
        if not isinstance(kind, str) or kind == "abstract":
            continue
        if not callable(getattr(cls, "to_dict", None)):
            continue
        if getattr(cls, "spec_expressible", True) is False:
            # Escape hatches (in-memory/callable sources) opt out of the
            # spec form entirely; they are not required to register.
            continue
        bound.add(cls)
    return sorted(bound, key=lambda cls: (cls.__module__, cls.__qualname__))


def _class_location(cls: Type[Any]) -> Tuple[str, int]:
    """(absolute source path, 1-based class statement line) of ``cls``."""
    try:
        source_file = inspect.getsourcefile(cls) or ""
    except TypeError:  # the defining module is no longer loaded
        source_file = ""
    try:
        _, lineno = inspect.getsourcelines(cls)
    except (OSError, TypeError):
        lineno = 1
    return str(Path(source_file).resolve()) if source_file else "", lineno


@register_rule
class RegistryCompletenessRule(Rule):
    code = "REG601"
    name = "unregistered-spec-class"
    rationale = (
        "Every class with a to_dict spec form and a concrete `kind` must be "
        "resolvable from its subsystem registry under that kind, and every "
        "registered class must answer to its registered name — otherwise "
        "specs written today fail to round-trip tomorrow and cached "
        "campaign artifacts keyed on the spec hash become unloadable."
    )
    scope = "project"

    def check_project(self, contexts: Sequence[FileContext]) -> List[Finding]:
        by_abspath: Dict[str, FileContext] = {
            str(context.path.resolve()): context for context in contexts
        }
        _import_every_module()
        findings: List[Finding] = []
        for registry in all_registries():
            if registry.base is not None:
                findings.extend(self._audit(registry, registry.base, by_abspath))
        return findings

    def _audit(
        self,
        registry: Registry[Any],
        base: Type[Any],
        by_abspath: Dict[str, FileContext],
    ) -> Iterator[Finding]:
        label = registry.label
        registered = dict(registry.items())
        for cls in _spec_classes(base):
            kind = inspect.getattr_static(cls, "kind")
            if kind in registered:
                continue
            abspath, lineno = _class_location(cls)
            context = by_abspath.get(abspath)
            if context is None:
                continue
            yield context.finding(
                _ClassAnchor(lineno),
                self.code,
                f"{label} class {cls.__name__} declares kind={kind!r} and a "
                f"to_dict spec form but is not registered in the {label} "
                "registry",
            )
        # Registered class factories must answer to their registered name.
        for name, factory in registered.items():
            if not isinstance(factory, type):
                continue  # wrapper functions own their own naming
            abspath, lineno = _class_location(factory)
            context = by_abspath.get(abspath)
            if context is None:
                continue
            declared = inspect.getattr_static(factory, "kind", None)
            if isinstance(declared, str) and declared != name:
                yield context.finding(
                    _ClassAnchor(lineno),
                    self.code,
                    f"{label} registry name {name!r} resolves to "
                    f"{factory.__name__}, which declares kind={declared!r}; "
                    "the names must agree",
                )


class _ClassAnchor(ast.AST):
    """Minimal node-shaped anchor for findings located via ``inspect``."""

    def __init__(self, lineno: int) -> None:
        super().__init__()
        self.lineno = lineno
        self.col_offset = 0
