"""Epoch pacemaker (paper Sec. 5.2.1).

Ladon proceeds in epochs.  Epoch ``e`` owns the contiguous rank range
``[minRank(e), maxRank(e)]`` with ``maxRank(e) = minRank(e) + l(e) - 1``.  A
leader that proposes a block carrying ``maxRank(e)`` stops proposing; the
system advances to epoch ``e+1`` only when every instance has partially
committed its ``maxRank(e)`` block, after which 2f+1 checkpoint messages form
a stable checkpoint.  The pacemaker holds a replica's one count of those
checkpoint votes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass(frozen=True)
class EpochConfig:
    """Static epoch parameters.

    ``length`` is the paper's ``l(e)`` (fixed at 64 in the evaluation), i.e.
    the number of ranks available per epoch.
    """

    length: int = 64
    num_instances: int = 1

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("epoch length must be positive")
        if self.num_instances <= 0:
            raise ValueError("need at least one instance")

    def min_rank(self, epoch: int) -> int:
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        return epoch * self.length

    def max_rank(self, epoch: int) -> int:
        return self.min_rank(epoch) + self.length - 1


@dataclass
class EpochState:
    """Mutable per-epoch progress tracked by one replica."""

    epoch: int
    instances_at_max_rank: Set[int] = field(default_factory=set)
    checkpoint_votes: Set[int] = field(default_factory=set)


class EpochPacemaker:
    """Tracks epoch advancement for one replica.

    The pacemaker is deliberately local: each replica observes partially
    committed blocks and checkpoint messages and decides when *it* may start
    processing the next epoch.  The protocol layer feeds it via
    :meth:`observe_commit` and :meth:`observe_checkpoint`.

    State is kept for the current and the previous epoch only (the previous
    one for the view-change checkpoint re-broadcast): advancing to epoch
    ``e`` drops every epoch below ``e - 1``.  Those are settled — the
    replica advanced through them, each on a stable checkpoint — so they
    report as stable and ignore further votes.
    """

    def __init__(self, config: EpochConfig, quorum: int) -> None:
        self.config = config
        self.quorum = quorum
        self.current_epoch = 0
        self._states: Dict[int, EpochState] = {0: EpochState(epoch=0)}
        #: epochs below this are pruned and settled
        self._floor = 0
        self.advancement_log: List[Tuple[float, int]] = []

    # ------------------------------------------------------------- rank range
    def min_rank(self, epoch: Optional[int] = None) -> int:
        return self.config.min_rank(self.current_epoch if epoch is None else epoch)

    def max_rank(self, epoch: Optional[int] = None) -> int:
        return self.config.max_rank(self.current_epoch if epoch is None else epoch)

    def _state(self, epoch: int) -> EpochState:
        if epoch not in self._states:
            self._states[epoch] = EpochState(epoch=epoch)
        return self._states[epoch]

    # ------------------------------------------------------------ observation
    def observe_commit(self, instance: int, rank: int, now: float) -> bool:
        """Record a partial commit; returns True if the current epoch is complete.

        Epoch ``e`` is complete when every instance has partially committed a
        block carrying ``maxRank(e)``.  This runs once per partial commit
        per replica, so the rank arithmetic of :class:`EpochConfig` and
        :meth:`_state` are inlined; ``rank`` is a block's, never negative.
        """
        length = self.config.length
        epoch = rank // length
        states = self._states
        state = states.get(epoch)
        if state is None:
            state = states[epoch] = EpochState(epoch=epoch)
        if rank % length == length - 1:  # rank == maxRank(epoch)
            state.instances_at_max_rank.add(instance)
        if epoch != self.current_epoch:
            state = states[self.current_epoch]
        return len(state.instances_at_max_rank) >= self.config.num_instances

    def epoch_complete(self, epoch: Optional[int] = None) -> bool:
        epoch = self.current_epoch if epoch is None else epoch
        state = self._state(epoch)
        return len(state.instances_at_max_rank) >= self.config.num_instances

    def observe_checkpoint(self, epoch: int, replica: int) -> bool:
        """Record ``replica``'s checkpoint vote for ``epoch``; True when that
        epoch's checkpoint is stable (2f+1 votes, or settled)."""
        if epoch >= self._floor:
            self._state(epoch).checkpoint_votes.add(replica)
        return self._stable(epoch)

    def votes(self, epoch: int) -> int:
        """Distinct checkpoint votes seen for ``epoch`` (a quorum once settled)."""
        if epoch < self._floor:
            return self.quorum
        state = self._states.get(epoch)
        return len(state.checkpoint_votes) if state is not None else 0

    def _stable(self, epoch: int) -> bool:
        """The one checkpoint quorum comparison."""
        return self.votes(epoch) >= self.quorum

    # ------------------------------------------------------------ advancement
    def try_advance(self, now: float) -> bool:
        """Advance to the next epoch if the current one is complete and checkpointed."""
        if not self.epoch_complete(self.current_epoch):
            return False
        if not self._stable(self.current_epoch):
            return False
        self.current_epoch += 1
        self._state(self.current_epoch)
        self.advancement_log.append((now, self.current_epoch))
        self._floor = self.current_epoch - 1
        states = self._states
        for epoch in [e for e in states if e < self._floor]:
            del states[epoch]
        return True
