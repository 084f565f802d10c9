"""Finding records: one rule violation each."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a specific source location.

    ``path`` is stored POSIX-relative to the project root so findings are
    stable across machines and checkouts.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """``path:line:col: CODE message`` — the one-line text rendering."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """Canonical dictionary form (the JSON output)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
