"""End-to-end Multi-BFT systems running on the discrete-event simulator.

Each system hosts ``m`` consensus instances per replica, a global ordering
layer, workload injection, fault/straggler injection, and metric collection.
Available protocols (see :mod:`repro.protocols.registry`):

* ``ladon-pbft``, ``ladon-opt``, ``ladon-hotstuff`` — the paper's systems;
* ``iss-pbft``, ``iss-hotstuff`` — ISS with pre-determined ordering;
* ``mir``, ``rcc`` — Mir and RCC (pre-determined ordering variants; RCC's
  leader replacement is not modelled: the paper's honest stragglers never
  trigger it, so ``rcc`` is ISS's replica over PBFT);
* ``dqbft`` — DQBFT with a centralised ordering instance.
"""

from repro.protocols.base import MultiBFTSystem, MultiBFTReplica, SystemResult
from repro.protocols.registry import build_system, available_protocols

__all__ = [
    "MultiBFTSystem",
    "MultiBFTReplica",
    "SystemResult",
    "build_system",
    "available_protocols",
]
