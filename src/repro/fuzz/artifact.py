"""Violation artifacts: serialized, replayable repros of fuzzer findings.

An artifact pins everything needed to re-run one violating execution and
check the replay is *bit-exact*:

* the experiment **cell** (protocol, n, duration, perturbation, ...);
* the **perturbation** spec in decision-replay form (the effective delta per
  delivery, stored sparse);
* the **expected** outcome: audit verdict, violation kinds, confirmed-block
  count, and the canonical sha256 digest of the full schedule trace;
* the trace **skeleton** — every non-delivery event (confirmations,
  cancellations, fault timeline).  Deliveries dominate a trace by orders of
  magnitude, so artifacts stay small while the digest still witnesses every
  delivery; on divergence the skeleton pinpoints the first mismatching
  event for diagnostics.

Artifacts in ``tests/corpus/`` are permanent regression tests: each one is
replayed by ``tests/test_corpus.py`` on every run, and by ``fuzz replay``.
They are findings against the faithful protocols only.  An artifact of a
bug planted on purpose lives in ``tests/planted/``: its cell names a stock
protocol, and it replays only with the planted instance class installed in
that protocol's registry row (``tests/planted_bugs.py``).
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Dict, List, Optional

from repro.bench.config import ExperimentCell
from repro.fuzz.perturb import PerturbationSpec
from repro.sim.trace import TraceEvent, trace_digest, trace_from_jsonable, trace_to_jsonable

#: bump on incompatible artifact layout changes; readers reject other versions
FORMAT = 2


# ----------------------------------------------------------------- outcome
def outcome_of(result: Any, trace_events: List[TraceEvent]) -> Dict[str, Any]:
    """The pinned outcome of one traced run (the replay comparison target)."""
    audit = result.audit
    kinds = sorted({violation.kind for violation in audit.violations})
    if audit.stalled_instances:
        kinds.append("stalled")
    return {
        "safety_ok": audit.safety_ok,
        "live": audit.live,
        "violation_kinds": kinds,
        "stalled_instances": list(audit.stalled_instances),
        "confirmed": len(result.confirmed),
        "trace_digest": trace_digest(trace_events),
    }


def is_violation(outcome: Dict[str, Any]) -> bool:
    """Does this outcome trip the oracle (safety or liveness)?"""
    return bool(outcome["violation_kinds"])


# ------------------------------------------------------------ cell (de)ser
def cell_to_jsonable(cell: ExperimentCell) -> Dict[str, Any]:
    data: Dict[str, Any] = {}
    for f in fields(cell):
        value = getattr(cell, f.name)
        if f.name == "perturbation":
            value = value.as_dict() if value is not None else None
        data[f.name] = value
    return data


def cell_from_jsonable(data: Dict[str, Any]) -> ExperimentCell:
    kwargs = dict(data)
    if kwargs.get("perturbation") is not None:
        kwargs["perturbation"] = PerturbationSpec.from_dict(kwargs["perturbation"])
    return ExperimentCell(**kwargs)


# ----------------------------------------------------------- artifact body
def make_artifact(
    cell: ExperimentCell,
    outcome: Dict[str, Any],
    trace_events: List[TraceEvent],
    *,
    note: str = "",
) -> Dict[str, Any]:
    """Build the serializable artifact for one violating run."""
    skeleton = [event for event in trace_events if event.category != "deliver"]
    return {
        "format": FORMAT,
        "note": note,
        "cell": cell_to_jsonable(cell),
        "expected": outcome,
        "skeleton": trace_to_jsonable(skeleton),
    }


def artifact_cell(artifact: Dict[str, Any]) -> ExperimentCell:
    """The experiment cell an artifact replays."""
    if artifact.get("format") != FORMAT:
        raise ValueError(
            f"unsupported artifact format {artifact.get('format')!r} "
            f"(this build reads format {FORMAT})"
        )
    return cell_from_jsonable(artifact["cell"])


def artifact_skeleton(artifact: Dict[str, Any]) -> List[TraceEvent]:
    return trace_from_jsonable(artifact["skeleton"])


# ----------------------------------------------------------------- file IO
def write_artifact(path: str, artifact: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_artifact(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
