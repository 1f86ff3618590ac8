"""Experiment harness: one entry point per table and figure of the paper.

The harness supports two engines:

* ``des`` — the message-level discrete-event simulator (exact protocol state
  machines; used for the 8–32 replica cells, the crash-fault timeline and the
  causality table);
* ``analytical`` — a block-level performance model that executes the same
  global-ordering code over synthetic per-block commit times (used for the
  64–128 replica sweeps of Fig. 5/6/7/10 where message-level simulation is
  too slow to run routinely).

Grid-shaped experiments run through :mod:`repro.bench.sweep`, a parallel
sweep runner with an on-disk result cache; ``python -m repro.bench`` exposes
every table/figure on the command line.
"""

from repro.bench.config import ENGINES, ExperimentCell
from repro.bench.runner import run_cell
from repro.bench.analytical import run_analytical
from repro.bench import experiments
from repro.bench.report import format_table, format_series
from repro.bench.sweep import SweepCache, SweepProgress, SweepRunner, cell_key, derive_seed, expand_grid

__all__ = [
    "ENGINES",
    "ExperimentCell",
    "run_cell",
    "run_analytical",
    "experiments",
    "format_table",
    "format_series",
    "SweepCache",
    "SweepProgress",
    "SweepRunner",
    "cell_key",
    "derive_seed",
    "expand_grid",
]
