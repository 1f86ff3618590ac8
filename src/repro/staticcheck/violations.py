"""Violation records produced by the static-analysis rules.

A :class:`Violation` pins one rule hit to one source location.  The
``fingerprint`` property gives a line-content-based identity that survives
line-number drift; it is part of the JSON report so external tooling can
track a violation across edits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict

#: severities, in increasing order of consequence.  ``error`` violations make
#: the CLI exit nonzero; ``warning`` violations are reported but do not.
SEVERITIES = ("warning", "error")


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule hit at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    #: the stripped source line, for display and fingerprinting
    snippet: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        """Content-based identity: stable across pure line-number drift."""
        digest = hashlib.sha1(self.snippet.strip().encode("utf-8")).hexdigest()
        return f"{self.path}:{self.rule}:{digest[:12]}"

    def format_text(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity}] {self.message}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
        }
