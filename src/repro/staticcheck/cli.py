"""The ``python -m repro.staticcheck`` command line.

Usage::

    python -m repro.staticcheck src                    # check the tree
    python -m repro.staticcheck src --format json      # machine-readable
    python -m repro.staticcheck src --select DET       # one family
    python -m repro.staticcheck src --ignore HOT-002   # drop one rule
    python -m repro.staticcheck --list-rules           # the catalog

Exit codes: 0 clean, 1 violations, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.staticcheck.engine import CheckReport, check_paths
from repro.staticcheck.rules import ALL_RULES, select_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.staticcheck",
        description=(
            "Determinism & isolation static analysis for the repro tree: "
            "SEAM (sans-I/O boundary), DET (nondeterminism sources), "
            "ISO (shared state / aliasing), HOT (hot-path hygiene)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src if present, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULE",
        help="only run these rule ids or family prefixes (repeatable, "
        "comma-separable): --select DET --select ISO-001",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULE",
        help="skip these rule ids or family prefixes (repeatable)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="print only the summary line"
    )
    return parser


def _split_selectors(raw: List[str]) -> List[str]:
    return [part.strip() for item in raw for part in item.split(",") if part.strip()]


def _print_rule_catalog(stream) -> None:
    stream.write(f"{'ID':<10} {'severity':<9} {'scope':<44} rule\n")
    for rule in ALL_RULES:
        stream.write(f"{rule.id:<10} {rule.severity:<9} {rule.scope:<44} {rule.name}\n")


def _render_text(report: CheckReport, quiet: bool, stream) -> None:
    everything = report.parse_errors + report.violations
    if not quiet:
        for violation in everything:
            stream.write(violation.format_text() + "\n")
    noun = "violation" if len(everything) == 1 else "violations"
    stream.write(
        f"staticcheck: {len(everything)} {noun} in "
        f"{report.checked_files} files\n"
    )


def _render_json(report: CheckReport, stream) -> None:
    counts: dict = {}
    for violation in report.violations:
        counts[violation.rule] = counts.get(violation.rule, 0) + 1
    payload = {
        "version": 1,
        "checked_files": report.checked_files,
        "violations": [
            v.to_json() for v in report.parse_errors + report.violations
        ],
        "counts": counts,
        "exit_code": report.exit_code,
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rule_catalog(stream)
        return 0

    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        parser.error(f"no such path: {', '.join(missing)}")

    try:
        rules = select_rules(
            _split_selectors(args.select), _split_selectors(args.ignore)
        )
    except ValueError as exc:
        parser.error(str(exc))

    report = check_paths(paths, rules=rules)

    if args.format == "json":
        _render_json(report, stream)
    else:
        _render_text(report, args.quiet, stream)
    return report.exit_code
