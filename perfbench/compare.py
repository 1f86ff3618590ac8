"""Diff two result files: ``python -m perfbench.compare A.json B.json``.

A is the base, B the candidate (both written by ``python -m perfbench
--out``).  One row per (workload, metric) with both medians, both quartile
pairs and the ratio B/A.  Verdicts:

* simulated statistics and work counters (kind ``sim``) are exact for a
  fixed seed: ``same`` or ``CHANGED``, nothing in between;
* bounded host metrics: ``REGRESSED`` when B's median is worse than A's by
  more than the metric's bound, ``improved`` when better by more than it,
  otherwise ``unchanged`` — unless the run-to-run interquartile spread of
  either side exceeds the bound (or a side has a single sample), in which
  case the honest answer is ``unresolved``;
* per-layer host times have no bound and get no verdict.

Exits 1 if any row is ``REGRESSED``, ``CHANGED`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Optional, Sequence

from perfbench import metrics as M

_BAD = ("REGRESSED", "CHANGED", "unresolved")


def verdict(metric: M.Metric, a: List[float], b: List[float]) -> str:
    med_a, med_b = statistics.median(a), statistics.median(b)
    if metric.kind == "sim":
        return "same" if med_a == med_b else "CHANGED"
    if metric.bound is None or med_a == 0:
        return "-"
    worse_by = (med_b - med_a) / med_a if metric.better == "lower" else (med_a - med_b) / med_a
    if worse_by > metric.bound:
        return "REGRESSED"
    spreads = [M.spread(a), M.spread(b)]
    if any(s is None or s > metric.bound for s in spreads):
        return "unresolved"
    return "improved" if worse_by < -metric.bound else "unchanged"


def _quartile_text(values: List[float]) -> str:
    q = M.quartiles(values)
    return f"[{q[0]:.5g}, {q[1]:.5g}]" if q else "[n=1]"


def compare(doc_a: dict, doc_b: dict) -> List[str]:
    """The report lines; a line's last word is its verdict."""
    lines: List[str] = []
    if doc_a.get("seed") != doc_b.get("seed") or doc_a.get("smoke") != doc_b.get("smoke"):
        lines.append(
            f"note: seeds/sizes differ (A seed={doc_a.get('seed')} smoke={doc_a.get('smoke')}, "
            f"B seed={doc_b.get('seed')} smoke={doc_b.get('smoke')}): simulated statistics will not match"
        )
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None or a.get("skipped") or b.get("skipped"):
            lines.append(f"{name}: not in both files, skipped")
            continue
        lines.append(
            f"{name}: failed/attempted A {a['failed_runs']}/{a['attempted_runs']}  "
            f"B {b['failed_runs']}/{b['attempted_runs']}  "
            f"digest {'same' if a['digest'] == b['digest'] else 'CHANGED'}"
        )
        for group, declared in (("end_to_end", M.END_TO_END), ("per_layer", M.PER_LAYER)):
            for metric in declared:
                va, vb = a[group].get(metric.name), b[group].get(metric.name)
                if not va or not vb:
                    continue
                med_a, med_b = statistics.median(va), statistics.median(vb)
                ratio = f"{med_b / med_a:.4f}" if med_a else "-"
                bound = f"{metric.bound:.0%}" if metric.bound is not None else "-"
                lines.append(
                    f"  {metric.name:<26} {metric.unit:<9} A {med_a:>12.6g} {_quartile_text(va):<24} "
                    f"B {med_b:>12.6g} {_quartile_text(vb):<24} B/A {ratio:<8} bound {bound:<4} "
                    f"{verdict(metric, va, vb)}"
                )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print("usage: python -m perfbench.compare A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    lines = compare(*documents)
    print("\n".join(lines))
    bad = [line for line in lines if line.endswith(_BAD)]
    print(f"\n{len(bad)} row(s) regressed, changed or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
