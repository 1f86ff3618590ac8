"""Deterministic replay of traced runs and violation artifacts.

Replay is *re-execution*: the cell is rebuilt and re-run with tracing on,
and the fresh trace is compared against the artifact's pinned expectations.
Bit-exactness means the canonical trace digests match — same deliveries,
same cancellations, same fault actions, same confirmations, at the same
virtual times, in the same order.  On divergence the artifact's skeleton
(non-delivery events) localizes the first mismatching event for a usable
diagnostic; a digest-only mismatch means the divergence is inside the
delivery stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.bench.config import ExperimentCell
from repro.fuzz.artifact import (
    artifact_cell,
    artifact_skeleton,
    is_violation,
    outcome_of,
)
from repro.sim.trace import TraceEvent, event_key


def run_cell_traced(cell: ExperimentCell) -> Tuple[Any, Any]:
    """Run ``cell`` on the DES engine with tracing forced on.

    Returns ``(system, result)`` — the system exposes ``.trace`` (the
    schedule witness) and ``.perturbation`` (the applied decision vector).
    """
    from repro.protocols.registry import build_system

    if cell.engine != "des":
        raise ValueError(f"traced runs need the DES engine; got {cell.engine!r}")
    system = build_system(replace(cell, trace=True))
    result = system.run()
    return system, result


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one artifact."""

    ok: bool
    outcome: Dict[str, Any]
    expected: Dict[str, Any]
    divergence: str = ""

    def summary(self) -> str:
        if self.ok:
            kinds = ",".join(self.outcome["violation_kinds"]) or "none"
            return f"replay OK (bit-exact; violations: {kinds})"
        return f"replay DIVERGED: {self.divergence}"


def _first_skeleton_divergence(
    expected: List[TraceEvent], actual: List[TraceEvent]
) -> str:
    """Human-readable location of the first skeleton mismatch ('' if none)."""
    for index, (want, got) in enumerate(zip(expected, actual)):
        if event_key(want) != event_key(got):
            return (
                f"diverged at skeleton event #{index}: "
                f"expected {event_key(want)}, got {event_key(got)}"
            )
    if len(expected) != len(actual):
        return (
            f"skeleton length mismatch: expected {len(expected)} events, "
            f"got {len(actual)} (first {min(len(expected), len(actual))} match)"
        )
    return ""


def replay_artifact(artifact: Dict[str, Any]) -> ReplayReport:
    """Re-execute an artifact's cell and compare against its expectations."""
    cell = artifact_cell(artifact)
    system, result = run_cell_traced(cell)
    outcome = outcome_of(result, system.trace.events)
    expected = artifact["expected"]
    if outcome == expected:
        return ReplayReport(ok=True, outcome=outcome, expected=expected)

    # Diagnose: prefer an event-level location over a bare digest mismatch.
    divergence = ""
    if outcome["trace_digest"] != expected["trace_digest"]:
        skeleton_expected = artifact_skeleton(artifact)
        skeleton_actual = [
            event for event in system.trace.events if event.category != "deliver"
        ]
        divergence = _first_skeleton_divergence(skeleton_expected, skeleton_actual)
        if not divergence:
            divergence = (
                "trace digest mismatch inside the delivery stream "
                f"(expected {expected['trace_digest'][:16]}..., "
                f"got {outcome['trace_digest'][:16]}...)"
            )
    else:
        mismatched = sorted(
            key
            for key in set(expected) | set(outcome)
            if expected.get(key) != outcome.get(key)
        )
        divergence = "verdict mismatch on " + ", ".join(
            f"{key} (expected {expected.get(key)!r}, got {outcome.get(key)!r})"
            for key in mismatched
        )
    return ReplayReport(ok=False, outcome=outcome, expected=expected, divergence=divergence)
