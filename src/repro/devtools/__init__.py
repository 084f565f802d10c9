"""Project-contract static analysis for the DFRS reproduction.

The reproduction's credibility rests on contracts that, before this package,
lived only in convention and runtime tests:

* every simulation draw comes from an explicitly seeded
  ``np.random.default_rng`` (never the global module RNGs, never wall clock),
* every spec class (``to_dict`` + ``type`` field) is resolvable from its
  subsystem registry,
* payloads crossing the ``multiprocessing`` boundary stay picklable,
* iteration order never leaks set nondeterminism into byte-identical results,
* float equality on result-affecting paths goes through the epsilon helpers,
* no handler silently swallows :class:`~repro.exceptions.SimulationError`.

A violation of any of these corrupts reproducibility silently — a static
pass catches the whole class at commit time instead of as a flaky
golden-test failure.  The engine mirrors the project's ``type``-registry
idiom: each rule has a stable code (``DET101`` …), registers itself in a
rule registry, and emits :class:`~repro.devtools.findings.Finding` records.
Suppression is per-line (``# repro: noqa[DET101]``); any other finding
fails the check.

Run it as ``repro-dfrs dev check [PATHS]``.
"""

from .findings import Finding
from .rules import (
    Rule,
    available_rules,
    create_rules,
    register_rule,
    rule_catalog,
)
from .engine import CheckResult, check_paths

# Importing the packs registers the built-in rules.
from . import rulepack as _rulepack  # noqa: F401
from . import registry_audit as _registry_audit  # noqa: F401

__all__ = [
    "Finding",
    "Rule",
    "register_rule",
    "available_rules",
    "rule_catalog",
    "create_rules",
    "CheckResult",
    "check_paths",
]
