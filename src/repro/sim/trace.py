"""Structured tracing for simulation runs.

Traces are optional (disabled by default to keep large sweeps cheap) and are
used by tests, the crash-recovery figure, and the schedule-space fuzzer to
inspect protocol behaviour without reaching into node internals.

A trace doubles as the *replay witness* of a run: with tracing enabled the
transport records every delivery, the simulator records every effective
cancellation, and the fault injector records every timeline action, so two
runs are schedule-identical exactly when their canonical digests
(:func:`trace_digest`) match.  The canonical form is JSON (sorted detail
keys, exact float round-trip), so digests are stable across processes and
Python versions and can be pinned in regression artifacts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: a timestamp, a category, a node, and details."""

    time: float
    category: str
    node: Optional[int]
    details: Dict[str, Any]


@dataclass
class TraceRecorder:
    """Accumulates :class:`TraceEvent` records during a run."""

    enabled: bool = True
    events: List[TraceEvent] = field(default_factory=list)

    def record(self, time: float, category: str, node: Optional[int] = None, **details: Any) -> None:
        if not self.enabled:
            return
        self.events.append(TraceEvent(time=time, category=category, node=node, details=dict(details)))

    def by_category(self, category: str) -> List[TraceEvent]:
        return [event for event in self.events if event.category == category]

    def digest(self) -> str:
        """Canonical sha256 of everything recorded so far."""
        return trace_digest(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


# ------------------------------------------------------- canonical encoding
def event_key(event: TraceEvent) -> tuple:
    """The comparison key of one event: ``(time, category, node, details)``."""
    return (event.time, event.category, event.node, tuple(sorted(event.details.items())))


def trace_to_jsonable(events: Iterable[TraceEvent]) -> List[dict]:
    """Events as compact JSON-ready dicts (``t``/``c``/``n``/``d``).

    Detail values must be JSON scalars (str/int/float/bool/None) so the
    round trip through :func:`trace_from_jsonable` is lossless — Python's
    JSON float encoding is exact (shortest round-trip repr).
    """
    return [
        {"t": e.time, "c": e.category, "n": e.node, "d": e.details} for e in events
    ]


def trace_from_jsonable(data: Iterable[dict]) -> List[TraceEvent]:
    """Rebuild :class:`TraceEvent` records from :func:`trace_to_jsonable` output."""
    return [
        TraceEvent(time=item["t"], category=item["c"], node=item["n"], details=dict(item["d"]))
        for item in data
    ]


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """Canonical sha256 hexdigest of an event sequence.

    Canonical form: the JSON encoding of ``[time, category, node,
    [[key, value]...]]`` rows with detail keys sorted, no whitespace.  Two
    runs producing the same digest recorded the same events at the same
    virtual times in the same order — the replay equivalence the fuzzer's
    bit-exactness check rests on.
    """
    payload = json.dumps(
        [
            [e.time, e.category, e.node, sorted(e.details.items())]
            for e in events
        ],
        separators=(",", ":"),
        sort_keys=False,
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
