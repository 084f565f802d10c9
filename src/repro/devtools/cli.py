"""``repro-dfrs dev`` — the developer-facing static-analysis commands.

Exit codes (``dev check``): 0 clean, 1 findings, 2 usage/configuration
errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from typing import List, Optional

from ..exceptions import ConfigurationError
from .engine import check_paths
from .rules import rule_catalog

__all__ = ["add_dev_subparser", "run_dev_command"]


def add_dev_subparser(subparsers: "argparse._SubParsersAction") -> None:
    """Wire ``dev check`` / ``dev rules`` into the main CLI parser."""
    dev = subparsers.add_parser(
        "dev", help="project-contract static analysis (see repro.devtools)"
    )
    dev_sub = dev.add_subparsers(dest="dev_command", required=True)

    check = dev_sub.add_parser(
        "check",
        help="run the rule pack; exit 1 on any finding",
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    check.add_argument(
        "--select",
        type=str,
        default=None,
        help="comma-separated rule codes or family prefixes to run (e.g. DET,ORD201)",
    )
    check.add_argument(
        "--ignore",
        type=str,
        default=None,
        help="comma-separated rule codes or family prefixes to skip",
    )
    check.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="finding output format (default: text)",
    )

    dev_sub.add_parser(
        "rules", help="list the rule catalog with each rule's contract rationale"
    )


def _split_codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    parts = [part.strip().upper() for part in raw.split(",") if part.strip()]
    return parts or None


def _run_check(args: argparse.Namespace) -> int:
    try:
        result = check_paths(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [finding.to_dict() for finding in result.findings],
                    "suppressed": result.suppressed,
                    "checked_files": result.checked_files,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if result.ok else 1
    for finding in result.findings:
        print(finding.format())
    summary = (
        f"{result.checked_files} file(s) checked: "
        f"{len(result.findings)} finding(s)"
    )
    if result.suppressed:
        summary += f", {result.suppressed} noqa-suppressed"
    print(summary)
    return 0 if result.ok else 1


def _run_rules() -> int:
    for rule in rule_catalog():
        scope = "project" if rule.scope == "project" else "file"
        print(f"{rule.code}  {rule.name}  [{scope}]")
        print(textwrap.indent(textwrap.fill(rule.rationale, width=76), "    "))
    return 0


def run_dev_command(args: argparse.Namespace) -> int:
    """Dispatch the ``dev`` subcommand; returns the process exit code."""
    if args.dev_command == "check":
        return _run_check(args)
    if args.dev_command == "rules":
        return _run_rules()
    raise AssertionError(f"unknown dev command {args.dev_command!r}")
