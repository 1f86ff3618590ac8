"""Run experiment cells on either engine."""

from __future__ import annotations

from repro.bench.analytical import run_analytical
from repro.bench.config import ExperimentCell
from repro.metrics.collector import RunMetrics
from repro.protocols.base import SystemResult
from repro.protocols.registry import build_system


def run_cell(cell: ExperimentCell) -> RunMetrics:
    """Run one experiment cell and return its summary metrics."""
    if cell.engine == "analytical":
        return run_analytical(cell)
    return run_des_cell(cell).metrics


def run_des_cell(cell: ExperimentCell) -> SystemResult:
    """Run one cell on the message-level simulator, returning the full result."""
    return build_system(cell).run()
