"""The checker engine: file discovery, parsing, rule dispatch, suppressions.

The engine is deliberately dumb: it turns files into
:class:`SourceModule` records, hands each to every applicable rule, filters
the resulting violations through the inline suppressions, and returns a
sorted list.  All project knowledge lives in the
rules (:mod:`repro.staticcheck.rules`).
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.staticcheck.suppress import Suppression, apply_suppressions, parse_suppressions
from repro.staticcheck.violations import Violation

#: marker comment that opts a module into the HOT hygiene rules
HOT_MARKER_RE = re.compile(r"#\s*staticcheck:\s*hot-path\b")

#: directories never scanned (the checker's own sources live in staticcheck/)
EXCLUDED_DIRS = frozenset({"__pycache__", ".git", "staticcheck"})


@dataclass(slots=True)
class SourceModule:
    """One parsed source file plus everything the rules need to know."""

    path: str  # filesystem path as given
    display_path: str  # path used in reports (relative when possible)
    module: str  # dotted module name, best-effort ("" if unknown)
    text: str
    lines: List[str]
    tree: ast.Module
    is_hot: bool
    suppressions: Dict[int, Suppression]

    @property
    def package(self) -> str:
        """Top package under ``repro`` ("consensus" for repro.consensus.pbft)."""
        parts = self.module.split(".")
        if len(parts) >= 2 and parts[0] == "repro":
            return parts[1]
        return ""

    @classmethod
    def from_source(
        cls,
        text: str,
        *,
        module: str = "",
        path: str = "<memory>",
        display_path: Optional[str] = None,
    ) -> "SourceModule":
        lines = text.splitlines()
        return cls(
            path=path,
            display_path=display_path or path,
            module=module,
            text=text,
            lines=lines,
            tree=ast.parse(text, filename=path),
            is_hot=bool(HOT_MARKER_RE.search(text)),
            suppressions=parse_suppressions(lines),
        )

    @classmethod
    def from_path(cls, path: str) -> "SourceModule":
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        return cls.from_source(
            text,
            module=module_name_for(path),
            path=path,
            display_path=display_path_for(path),
        )


def module_name_for(path: str) -> str:
    """Best-effort dotted module name: everything from the ``repro`` path
    component down (``.../src/repro/sim/network.py`` -> ``repro.sim.network``)."""
    normalized = os.path.normpath(os.path.abspath(path))
    parts = normalized.split(os.sep)
    if "repro" not in parts:
        return ""
    start = parts.index("repro")
    module_parts = parts[start:]
    module_parts[-1] = module_parts[-1][:-3]  # strip .py
    if module_parts[-1] == "__init__":
        module_parts.pop()
    return ".".join(module_parts)


def display_path_for(path: str) -> str:
    absolute = os.path.abspath(path)
    cwd = os.getcwd()
    if absolute.startswith(cwd + os.sep):
        return os.path.relpath(absolute, cwd)
    return path


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in EXCLUDED_DIRS)
            for name in sorted(names):
                if name.endswith(".py"):
                    found.append(os.path.join(root, name))
    return found


@dataclass(slots=True)
class CheckReport:
    """Everything one run produced."""

    violations: List[Violation]
    checked_files: int
    parse_errors: List[Violation] = field(default_factory=list)

    @property
    def errors(self) -> List[Violation]:
        return [v for v in self.violations if v.severity == "error"]

    @property
    def exit_code(self) -> int:
        return 1 if self.errors or self.parse_errors else 0


def check_module(module: SourceModule, rules: Sequence) -> List[Violation]:
    """Run ``rules`` over one parsed module, honouring inline suppressions."""
    raw: List[Violation] = []
    for rule in rules:
        if rule.applies(module):
            raw.extend(rule.check(module))
    filtered = apply_suppressions(
        raw, module.suppressions, module.display_path, module.lines
    )
    filtered.sort(key=lambda v: (v.line, v.col, v.rule))
    return filtered


def check_source(
    text: str, *, module: str = "", path: str = "<memory>", rules: Optional[Sequence] = None
) -> List[Violation]:
    """Check an in-memory snippet (the unit-test entry point).

    ``module`` positions the snippet in the package scopes the rules key on,
    e.g. ``module="repro.consensus._fixture"`` makes the SEAM/ISO rules
    treat it as consensus code.
    """
    from repro.staticcheck.rules import ALL_RULES

    source = SourceModule.from_source(text, module=module, path=path)
    return check_module(source, ALL_RULES if rules is None else rules)


def check_paths(
    paths: Sequence[str],
    *,
    rules: Optional[Sequence] = None,
) -> CheckReport:
    """Check files/trees on disk; the CLI and the tier-1 test both call this."""
    from repro.staticcheck.rules import ALL_RULES

    active = ALL_RULES if rules is None else rules
    violations: List[Violation] = []
    parse_errors: List[Violation] = []
    files = discover_files(paths)
    for path in files:
        try:
            source = SourceModule.from_path(path)
        except SyntaxError as exc:
            parse_errors.append(
                Violation(
                    rule="SC-000",
                    severity="error",
                    path=display_path_for(path),
                    line=exc.lineno or 1,
                    col=exc.offset or 0,
                    message=f"file does not parse: {exc.msg}",
                    snippet=(exc.text or "").strip(),
                )
            )
            continue
        violations.extend(check_module(source, active))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return CheckReport(
        violations=violations, checked_files=len(files), parse_errors=parse_errors
    )
