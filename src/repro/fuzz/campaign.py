"""Schedule-space fuzzing campaigns.

A campaign sweeps perturbation seeds over one experiment cell: phase 1 fans
the seeds out across worker processes on the sweep harness (cheap, untraced
runs judged by the safety/liveness auditor's metrics row); when a seed
violates, phase 2 reproduces it in-process with tracing on, converts the
run into decision-replay form (the effective delta of every delivery),
delta-debugs it down to a minimal repro, and serializes the result as a
replayable artifact.

Determinism: seeds derive from ``derive_seed(base_seed, "perturbation", i)``
— the campaign's findings depend only on its configuration, never on worker
scheduling.  The campaign itself never reads a wall clock (DET-001); time
budgets are injected by the CLI as a ``should_stop`` callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.config import ExperimentCell
from repro.bench.sweep import SweepRunner, derive_seed
from repro.fuzz.artifact import is_violation, make_artifact, outcome_of
from repro.fuzz.perturb import PerturbationSpec
from repro.fuzz.replay import run_cell_traced
from repro.fuzz.shrink import ShrinkResult, shrink
from repro.protocols.base import HOTSTUFF_STACKS


@dataclass(frozen=True)
class FuzzConfig:
    """One fuzzing campaign: a cell template plus the perturbation sweep."""

    protocol: str = "ladon-pbft"
    n: int = 4
    duration: float = 8.0
    batch_size: int = 64
    seed: int = 0
    seeds: int = 16
    base_seed: int = 0
    max_delay: float = 1.2
    probability: float = 0.08
    #: burst cutoff: perturb only deliveries scheduled before this virtual
    #: time (None = duration / 2), leaving the tail unperturbed so honest
    #: runs re-stabilise before the auditor's end-of-run stall window
    perturb_until: Optional[float] = None
    view_change_timeout: float = 1.0
    #: follower-side escalation: expect a proposal within this window or
    #: start a view change (the crash-experiment mechanism).  Without it a
    #: lone view-change voter can deadlock an instance — every liveness
    #: finding would be that one wedge instead of the interesting ones.
    #: Left unarmed for the stacks in ``HOTSTUFF_STACKS``, which have no
    #: view change and refuse the timer.
    propose_timeout: Optional[float] = 2.0
    scenario: Optional[str] = None
    adversary: Optional[str] = None

    def base_cell(self) -> ExperimentCell:
        """The unperturbed cell every seed's run is a schedule variant of."""
        return ExperimentCell(
            protocol=self.protocol,
            n=self.n,
            duration=self.duration,
            batch_size=self.batch_size,
            seed=self.seed,
            scenario=self.scenario,
            adversary=self.adversary,
            view_change_timeout=self.view_change_timeout,
            propose_timeout=(
                None if self.protocol in HOTSTUFF_STACKS else self.propose_timeout
            ),
        )

    def spec_for(self, index: int) -> PerturbationSpec:
        until = self.perturb_until if self.perturb_until is not None else self.duration / 2.0
        return PerturbationSpec(
            max_delay=self.max_delay,
            probability=self.probability,
            until=until,
            seed=derive_seed(self.base_seed, "perturbation", index),
        )

    def cells(self) -> List[ExperimentCell]:
        base = self.base_cell()
        return [
            replace(base, perturbation=self.spec_for(index))
            for index in range(self.seeds)
        ]


@dataclass
class Finding:
    """One violating seed, optionally reproduced/shrunk into an artifact."""

    cell: ExperimentCell
    seed_index: int
    row: Dict[str, Any]
    artifact: Optional[Dict[str, Any]] = None
    shrink_result: Optional[ShrinkResult] = None


@dataclass
class CampaignReport:
    """Everything one campaign produced."""

    config: FuzzConfig
    rows: List[Dict[str, Any]] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    seeds_run: int = 0
    stopped_early: bool = False

    @property
    def ok(self) -> bool:
        return not self.findings


def row_violates(row: Dict[str, Any]) -> bool:
    """Does a sweep metrics row report a safety or liveness violation?

    ``RunMetrics.as_dict`` flattens the auditor's verdict into the row as
    ``safety_violations`` / ``stalled_instances`` counts.
    """
    return bool(
        row.get("safety_violations", 0.0) or row.get("stalled_instances", 0.0)
    )


def cell_violates(cell: ExperimentCell) -> bool:
    """Shrink predicate: does re-running ``cell`` still trip the oracle?

    Untraced on purpose — the predicate only needs the audit verdict, and
    shrinking runs it dozens of times; the winning candidate is re-run
    traced once afterwards to pin the digest.
    """
    from repro.bench.runner import run_cell

    return row_violates(run_cell(cell).as_dict())


def cell_breaks_safety(cell: ExperimentCell) -> bool:
    """Shrink predicate for safety findings: still a *safety* violation?"""
    from repro.bench.runner import run_cell

    return run_cell(cell).as_dict().get("safety_violations", 0.0) > 0


def predicate_for(outcome: Dict[str, Any]) -> Callable[[ExperimentCell], bool]:
    """The class-preserving shrink predicate for an outcome.

    A safety finding must stay a safety finding while shrinking — the
    generic "any violation" predicate would happily trade a conflicting
    commit for a mere stall, minimizing away the interesting bug.
    """
    return cell_violates if outcome["safety_ok"] else cell_breaks_safety


def reproduce(cell: ExperimentCell) -> Tuple[ExperimentCell, Dict[str, Any], Any]:
    """Re-run a violating cell traced; return it in decision-replay form.

    Returns ``(replay_cell, outcome, system)`` where ``replay_cell`` pins
    the effective decision vector (so shrinking and replay are independent
    of the RNG) and ``outcome`` is the pinned oracle verdict.
    """
    system, result = run_cell_traced(cell)
    outcome = outcome_of(result, system.trace.events)
    spec = cell.perturbation
    if spec is not None and spec.decisions is None and system.perturbation is not None:
        spec = replace(spec, decisions=tuple(system.perturbation.applied))
        cell = replace(cell, perturbation=spec)
    return cell, outcome, system


def run_campaign(
    config: FuzzConfig,
    *,
    runner: Optional[SweepRunner] = None,
    should_stop: Optional[Callable[[], bool]] = None,
    stop_on_violation: bool = True,
    do_shrink: bool = True,
    shrink_max_tests: int = 120,
    batch: int = 4,
    log: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run one campaign; returns the report (violations, rows, artifacts).

    ``should_stop`` is polled between seed batches (the CLI injects its
    wall-clock budget there; the campaign itself stays wall-clock-free).
    """
    runner = runner if runner is not None else SweepRunner(workers=0)
    emit = log if log is not None else (lambda message: None)
    report = CampaignReport(config=config)
    cells = config.cells()

    for start in range(0, len(cells), max(1, batch)):
        if should_stop is not None and should_stop():
            report.stopped_early = True
            emit(f"budget exhausted after {report.seeds_run} seeds")
            break
        chunk = cells[start : start + max(1, batch)]
        rows = runner.run(chunk)
        report.rows.extend(rows)
        report.seeds_run += len(chunk)
        for offset, (cell, row) in enumerate(zip(chunk, rows)):
            if not row_violates(row):
                continue
            seed_index = start + offset
            emit(f"seed {seed_index}: violation (reproducing traced)")
            finding = Finding(cell=cell, seed_index=seed_index, row=row)
            replay_cell, outcome, _system = reproduce(cell)
            if not is_violation(outcome):
                # The untraced sweep row and the traced rerun disagree —
                # that would itself be a determinism bug; surface loudly.
                raise AssertionError(
                    f"seed {seed_index} violated in the sweep but not when "
                    f"reproduced traced: {row} vs {outcome}"
                )
            if do_shrink:
                shrink_result = shrink(
                    replay_cell, predicate_for(outcome), max_tests=shrink_max_tests
                )
                finding.shrink_result = shrink_result
                replay_cell = shrink_result.cell
                emit(
                    f"seed {seed_index}: shrunk to "
                    f"{shrink_result.nonzero_decisions} decisions in "
                    f"{shrink_result.tests} tests"
                )
                # Re-pin the outcome/trace of the minimized repro.
                system, result = run_cell_traced(replay_cell)
                outcome = outcome_of(result, system.trace.events)
                trace_events = system.trace.events
            else:
                _cell2, outcome, system = reproduce(replay_cell)
                trace_events = system.trace.events
            finding.artifact = make_artifact(
                replay_cell,
                outcome,
                trace_events,
                note=(
                    f"found by fuzz campaign (base_seed={config.base_seed}, "
                    f"perturbation seed index {seed_index})"
                ),
            )
            report.findings.append(finding)
            if stop_on_violation:
                return report
    return report
