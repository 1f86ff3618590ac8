"""Run experiment cells on either engine."""

from __future__ import annotations

from typing import Dict, Iterable

from repro.bench.analytical import run_analytical
from repro.bench.config import ExperimentCell
from repro.metrics.collector import RunMetrics
from repro.protocols.base import SystemResult
from repro.protocols.registry import build_system


def run_cell(cell: ExperimentCell) -> RunMetrics:
    """Run one experiment cell and return its summary metrics."""
    if cell.engine == "analytical":
        if cell.scenario is not None:
            raise ValueError(
                "scenarios run only on the DES engine; "
                f"cell {cell.label()!r} sets engine='analytical'"
            )
        if cell.adversary is not None:
            raise ValueError(
                "adversaries run only on the DES engine; "
                f"cell {cell.label()!r} sets engine='analytical'"
            )
        if cell.runtime != "des":
            raise ValueError(
                "the analytical engine has no execution runtime; "
                f"cell {cell.label()!r} sets runtime={cell.runtime!r}"
            )
        if cell.perturbation is not None or cell.compat_flags:
            raise ValueError(
                "schedule perturbation and compat flags run only on the DES "
                f"engine; cell {cell.label()!r} sets engine='analytical'"
            )
        return run_analytical(cell)
    result = run_des_cell(cell)
    return result.metrics


def run_des_cell(cell: ExperimentCell) -> SystemResult:
    """Run one cell on the message-level simulator, returning the full result."""
    system = build_system(cell.to_system_config())
    return system.run()


def metrics_by_label(cells: Iterable[ExperimentCell]) -> Dict[str, RunMetrics]:
    """Run cells and key the results by ``cell.label()``."""
    out: Dict[str, RunMetrics] = {}
    for cell in cells:
        out[cell.label()] = run_cell(cell)
    return out
