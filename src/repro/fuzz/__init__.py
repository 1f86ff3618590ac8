"""Schedule-space fuzzing: perturb DES delivery schedules, audit, replay, shrink.

The fuzzer searches the space of message-delivery schedules around a cell's
nominal execution: a :class:`~repro.fuzz.perturb.SchedulePerturbation` sits
between the transport's fan-out and the event heap and delays individual
deliveries by bounded, seeded amounts, so every perturbed run is still a
valid execution (arrivals only move later, never before their send).  The
safety/liveness auditor judges every run; violations are captured as
replayable artifacts and delta-debugged down to minimal repros that live in
``tests/corpus/``.

Import surface: this package root stays dependency-light (no bench/harness
imports) so the sans-I/O protocol layer can lazily pull
:mod:`repro.fuzz.perturb` without dragging in multiprocessing.  The campaign
driver lives in :mod:`repro.fuzz.campaign`; the CLI is the ``fuzz`` subtree
of :mod:`repro.bench.__main__` (``python -m repro.bench fuzz ...``).
"""

from repro.fuzz.perturb import PerturbationSpec, SchedulePerturbation

__all__ = ["PerturbationSpec", "SchedulePerturbation"]
