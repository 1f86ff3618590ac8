"""Quorum thresholds and quorum vote tracking.

:func:`fault_threshold` gives the f of an ``n = 3f+1`` system and
:func:`quorum_threshold` the 2f+1 built on it; every quorum size in the
package derives from them.

The tracker stores, per key, a **voter bitmask** (one bit per replica id)
instead of a ``set`` of ids: recording a vote is a bit-or, the quorum check
is a popcount (``int.bit_count``), and there is no per-vote set allocation.
Reached-quorum state is folded into the same dict entry (the mask is stored
bit-inverted, i.e. negative, once the key reached quorum), so the hot path
costs exactly one dict lookup and one store per vote.  This sits on the
consensus hot path — one ``add_vote`` per prepare/commit vote per replica —
so the constant factor matters at n=128.

Two memory guarantees back the bounded-memory mode of the protocol layer:

* :meth:`clear` releases a key's state (the instances call it when a round
  commits, so vote state is O(active rounds), not O(history)), and the
  dict's table with the last key;
* votes arriving *after* a key reached quorum are dropped — accumulating
  them (for a key nobody reads again) would let an adversarial vote flood
  grow memory without bound.
"""

# staticcheck: hot-path
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable


def fault_threshold(n: int) -> int:
    """Return f, the maximum number of Byzantine replicas tolerated."""
    if n <= 0:
        raise ValueError("n must be positive")
    return (n - 1) // 3


def quorum_threshold(n: int) -> int:
    """Return 2f+1 with ``f = fault_threshold(n)``, for every n.

    Two such quorums share an honest replica only when ``n = 3f+1``; for
    other n they may overlap in f replicas or fewer (n = 8: 2, and f = 2).
    """
    return 2 * fault_threshold(n) + 1


@dataclass(slots=True)
class QuorumTracker:
    """Counts distinct voters per key and fires exactly once per quorum.

    Keys are arbitrary hashable values, typically ``(view, round, digest)``
    tuples (the consensus instances intern digests to small ints so the hot
    keys are int-only tuples).  The tracker remembers which keys already
    reached quorum so a late vote cannot re-trigger the quorum action.
    """

    threshold: int
    #: voter bitmask per key; stored as ``~mask`` (negative) once the key
    #: reached quorum, so one dict entry carries both facts
    _votes: Dict[Hashable, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("quorum threshold must be positive")

    def add_vote(self, key: Hashable, voter: int) -> bool:
        """Record a vote.  Returns True exactly when the key first reaches quorum."""
        votes = self._votes
        mask = votes.get(key, 0)
        if mask < 0:  # quorum already reached; the late vote is dropped
            return False
        mask |= 1 << voter
        if mask.bit_count() >= self.threshold:
            votes[key] = ~mask
            return True
        votes[key] = mask
        return False

    def count(self, key: Hashable) -> int:
        """Number of distinct voters recorded for ``key``."""
        mask = self._votes.get(key, 0)
        return (~mask if mask < 0 else mask).bit_count()

    def clear(self, key: Hashable) -> None:
        """Release all state held for ``key`` (committed/garbage rounds).

        Clearing the last key also releases the dict's hash table: ``pop``
        never shrinks one, and every replica hosts every instance, so an
        idle instance's empty tables (~160 B per tracker) are paid n² times.
        """
        votes = self._votes
        votes.pop(key, None)
        if not votes:
            votes.clear()

    # ------------------------------------------------------------- inspection
    def tracked_keys(self) -> int:
        """Number of keys currently holding state (memory diagnostics)."""
        return len(self._votes)
