"""Reproduction of *Ladon: High-Performance Multi-BFT Consensus via Dynamic
Global Ordering* (EuroSys 2025).

Top-level convenience exports cover the most common entry points:

* :class:`repro.bench.ExperimentCell` / :func:`repro.protocols.build_system`
  — configure and run a Multi-BFT deployment on the simulator;
* :class:`repro.core.DynamicOrderer` and friends — the dynamic global
  ordering algorithm itself;
* :mod:`repro.bench` — the experiment harness regenerating every table and
  figure of the paper's evaluation.
"""

from repro.adversary import (
    AdversarySpec,
    DelayedVotes,
    Equivocation,
    RankManipulation,
    Silence,
)
from repro.bench.config import ExperimentCell
from repro.core import (
    Block,
    DynamicOrderer,
    PredeterminedOrderer,
    DQBFTOrderer,
    causal_strength,
)
from repro.metrics import SafetyAuditReport, audit_system
from repro.protocols import build_system, available_protocols
from repro.sim.faults import FaultConfig, StragglerSpec, CrashSpec

__version__ = "1.0.0"

__all__ = [
    "AdversarySpec",
    "Block",
    "DelayedVotes",
    "DynamicOrderer",
    "Equivocation",
    "RankManipulation",
    "SafetyAuditReport",
    "Silence",
    "audit_system",
    "PredeterminedOrderer",
    "DQBFTOrderer",
    "causal_strength",
    "ExperimentCell",
    "build_system",
    "available_protocols",
    "FaultConfig",
    "StragglerSpec",
    "CrashSpec",
    "__version__",
]
