"""Epoch checkpointing (paper Sec. 5.2.1 "Epoch advancement").

At the end of an epoch every replica broadcasts a checkpoint message; 2f+1
matching checkpoint messages form a *stable checkpoint*, after which the
replica may start processing the next epoch.  A replica that lags fetches the
missing log entries together with the stable checkpoint proving their
integrity (state transfer is modelled as a single bulk message).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.consensus.messages import CheckpointMessage
from repro.crypto.hashing import digest_hex


@dataclass
class CheckpointState:
    """Checkpoint votes for one epoch at one replica."""

    epoch: int
    votes: Set[int] = field(default_factory=set)
    stable: bool = False
    state_digest: str = ""


class CheckpointManager:
    """Tracks checkpoint votes and stable checkpoints per epoch."""

    def __init__(self, replica_id: int, quorum: int) -> None:
        self.replica_id = replica_id
        self.quorum = quorum
        self._states: Dict[int, CheckpointState] = {}
        #: epochs below this are pruned and treated as settled (stable)
        self._pruned_floor = 0

    def _state(self, epoch: int) -> CheckpointState:
        if epoch not in self._states:
            self._states[epoch] = CheckpointState(epoch=epoch)
        return self._states[epoch]

    def build_checkpoint(self, epoch: int, confirmed_count: int, view: int = 0) -> CheckpointMessage:
        """Build this replica's checkpoint message for ``epoch``."""
        state_digest = digest_hex("checkpoint", epoch, confirmed_count)
        self._state(epoch).state_digest = state_digest
        return CheckpointMessage(
            sender=self.replica_id,
            instance=-1,
            view=view,
            round=0,
            epoch=epoch,
            state_digest=state_digest,
        )

    def on_checkpoint(self, message: CheckpointMessage) -> bool:
        """Record a checkpoint vote; True exactly when the epoch became stable."""
        if message.epoch < self._pruned_floor:
            return False  # settled epoch: don't resurrect pruned vote state
        state = self._state(message.epoch)
        state.votes.add(message.sender)
        if not state.stable and len(state.votes) >= self.quorum:
            state.stable = True
            return True
        return False

    def is_stable(self, epoch: int) -> bool:
        if epoch < self._pruned_floor:
            return True  # settled: the cluster advanced well past it
        return self._state(epoch).stable

    def votes(self, epoch: int) -> int:
        if epoch < self._pruned_floor:
            return self.quorum
        return len(self._state(epoch).votes)

    def prune_below(self, floor: int) -> None:
        """Drop vote state for epochs below ``floor`` (bounded memory).

        Pruned epochs report as stable: the cluster has advanced at least
        two epochs past them, so their checkpoint quorums are settled
        history that can never gate progress again.
        """
        if floor <= self._pruned_floor:
            return
        self._pruned_floor = floor
        for epoch in [e for e in self._states if e < floor]:
            del self._states[epoch]
