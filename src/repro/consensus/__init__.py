"""BFT consensus-instance substrates.

Each consensus *instance* is a network-agnostic state machine: it receives
messages through :meth:`on_message`, emits messages through an
:class:`InstanceContext` supplied by the hosting replica, and reports
partially committed blocks through ``context.deliver``.  The protocol systems
in :mod:`repro.protocols` host ``m`` instances per replica and route their
messages over the simulated network.

Implementations:

* :mod:`repro.consensus.pbft` — vanilla PBFT (used by ISS / Mir / RCC / DQBFT);
* :mod:`repro.consensus.ladon_pbft` — Algorithm 2, PBFT with pipelined
  monotonic-rank collection;
* :mod:`repro.consensus.ladon_opt` — Sec. 5.3, the aggregate-signature rank
  message optimisation;
* :mod:`repro.consensus.hotstuff` — vanilla chained HotStuff;
* :mod:`repro.consensus.ladon_hotstuff` — Algorithm 3.
"""

from repro.consensus.base import InstanceConfig, InstanceContext, ConsensusInstance
from repro.consensus.messages import (
    PrePrepare,
    Prepare,
    Commit,
    RankMessage,
    ViewChange,
    NewView,
    CheckpointMessage,
    HotStuffProposal,
    HotStuffVote,
)
from repro.consensus.quorum import QuorumTracker
from repro.consensus.pbft import PBFTInstance
from repro.consensus.ladon_pbft import LadonPBFTInstance
from repro.consensus.ladon_opt import LadonOptInstance
from repro.consensus.hotstuff import HotStuffInstance
from repro.consensus.ladon_hotstuff import LadonHotStuffInstance

__all__ = [
    "InstanceConfig",
    "InstanceContext",
    "ConsensusInstance",
    "PrePrepare",
    "Prepare",
    "Commit",
    "RankMessage",
    "ViewChange",
    "NewView",
    "CheckpointMessage",
    "HotStuffProposal",
    "HotStuffVote",
    "QuorumTracker",
    "PBFTInstance",
    "LadonPBFTInstance",
    "LadonOptInstance",
    "HotStuffInstance",
    "LadonHotStuffInstance",
]
