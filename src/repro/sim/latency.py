"""Network latency models.

The paper deploys replicas in a LAN (one AWS region, 1 Gbps) and a WAN
spanning four regions: France (eu-west-3), N. America, Australia and Tokyo.
Both are instances of one model, :class:`TopologyLatency`: a per-replica
region assignment, a directed region-pair matrix of one-way base delays, and
a uniform jitter term drawn from a seeded RNG so repeated sends do not
synchronise artificially.  The paper's WAN is round-robin placement over
:data:`DEFAULT_WAN_REGIONS` with :data:`_WAN_ONE_WAY_DELAY` (entries
approximate public inter-region RTT/2 figures) and 5 ms jitter; its LAN is
one region at :data:`INTRA_REGION_DELAY` with 0.3 ms jitter.  The presets
live in :class:`repro.scenario.topology.TopologySpec`.  :class:`UniformLatency`
is the n-free single-region model (the transport's default, unit tests).

One RNG rule for every model: :meth:`LatencyModel.delay` draws exactly once
per non-self pair iff ``jitter > 0``, and never for a self pair.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


#: one-way delay between two nodes in the same region/datacenter (seconds)
INTRA_REGION_DELAY = 0.0005

#: the region every replica of a single-region model sits in
SINGLE_REGION = "lan"

DEFAULT_WAN_REGIONS: Tuple[str, ...] = (
    "eu-west-3",       # Paris, France
    "us-east-1",       # N. Virginia, America
    "ap-southeast-2",  # Sydney, Australia
    "ap-northeast-1",  # Tokyo
)

# One-way delays (seconds) between the default WAN regions, approximating
# public inter-region RTT measurements divided by two (links are symmetric).
_WAN_ONE_WAY_DELAY: Dict[Tuple[str, str], float] = {
    ("eu-west-3", "us-east-1"): 0.040,
    ("eu-west-3", "ap-southeast-2"): 0.140,
    ("eu-west-3", "ap-northeast-1"): 0.110,
    ("us-east-1", "ap-southeast-2"): 0.100,
    ("us-east-1", "ap-northeast-1"): 0.075,
    ("ap-southeast-2", "ap-northeast-1"): 0.055,
}


def link_delay(
    delays: Mapping[Tuple[str, str], float],
    src: str,
    dst: str,
    default: Optional[float] = None,
) -> float:
    """Base one-way delay of the directed link ``src -> dst`` (no jitter).

    The matrix entry if there is one; :data:`INTRA_REGION_DELAY` inside a
    region; otherwise ``default``, and without one a ``KeyError`` naming
    the link — a custom topology never silently gets a made-up number.
    """
    try:
        return delays[(src, dst)]
    except KeyError:
        if src == dst:
            return INTRA_REGION_DELAY
        if default is not None:
            return default
        raise KeyError(f"no delay registered for link {src!r} -> {dst!r}") from None


class LatencyModel:
    """Base class: maps (sender, receiver) to a propagation delay in seconds."""

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        raise NotImplementedError

    def min_delay(self, sender: int, receiver: int) -> float:
        """Deterministic lower bound on :meth:`delay` for this pair.

        The sharded runtime derives its conservative-synchronization
        lookahead from this bound (see :mod:`repro.shard.lookahead`): the
        contract is ``delay(s, r, rng) >= min_delay(s, r)`` for every RNG
        state.  Models that cannot promise a bound must leave this
        unimplemented, which makes the sharded runtime refuse the scenario
        instead of silently desynchronizing.
        """
        raise NotImplementedError(
            f"{type(self).__name__} provides no deterministic delay lower "
            "bound (required for the sharded runtime's lookahead)"
        )

    def region_of(self, replica: int) -> str:
        """The region hosting ``replica``; ``min_delay`` depends only on
        the (sender region, receiver region) pair.

        The sharded runtime places replicas and enumerates cross-shard
        links by region; a model without topology leaves this
        unimplemented and is refused there, like one without a bound.
        """
        raise NotImplementedError(
            f"{type(self).__name__} assigns replicas to no regions "
            "(required for the sharded runtime's placement and lookahead)"
        )

    def multicast_profile(self, sender: int, receivers) -> Tuple[Sequence[float], float]:
        """The fan-out view of :meth:`delay`: ``(base_row, jitter)``.

        ``base_row[r]`` is the deterministic base delay ``sender -> r``
        (defined for every id in ``receivers``; the sender's own slot is
        never read) and ``jitter`` the uniform jitter magnitude.  The
        transport computes ``base_row[r] + rng.random() * jitter`` inline,
        drawing iff ``jitter > 0`` and never for a self pair — the
        :meth:`delay` rule, so both give the same delays from the same RNG
        stream.
        """
        raise NotImplementedError(
            f"{type(self).__name__} provides no fan-out profile "
            "(required by the transport)"
        )


class UniformLatency(LatencyModel):
    """One region of any size: constant delay plus uniform jitter."""

    def __init__(self, base: float = 0.001, jitter: float = 0.0) -> None:
        if base < 0 or jitter < 0:
            raise ValueError("latency parameters must be non-negative")
        self.base = base
        self.jitter = jitter
        self._row: List[float] = []

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        if sender == receiver:
            return 0.0
        return self.base + rng.random() * self.jitter if self.jitter else self.base

    def min_delay(self, sender: int, receiver: int) -> float:
        return 0.0 if sender == receiver else self.base

    def region_of(self, replica: int) -> str:
        return SINGLE_REGION

    def multicast_profile(self, sender: int, receivers):
        """A constant row, grown to cover the highest receiver id asked about."""
        row = self._row
        highest = max(receivers, default=0)
        if highest >= len(row):
            row = self._row = [self.base] * (max(highest, 255) + 1)
        return row, self.jitter


class TopologyLatency(LatencyModel):
    """Region topology: explicit placement and a directed per-link delay matrix.

    ``assignment[replica]`` names each replica's region; ``delays[(a, b)]``
    is the one-way base delay of the directed link ``a -> b`` (``(a, b)``
    and ``(b, a)`` may differ — satellite uplinks, policy-routed paths).
    Links are resolved by :func:`link_delay` once, at construction, for
    every ordered pair of regions that host replicas: a missing link is a
    ``KeyError`` naming it at build time, never on first use, while links
    of regions no replica sits in are not required.
    """

    def __init__(
        self,
        assignment: Sequence[str],
        delays: Mapping[Tuple[str, str], float],
        jitter: float = 0.005,
        default_delay: Optional[float] = None,
    ) -> None:
        if not assignment:
            raise ValueError("assignment must name a region per replica")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if default_delay is not None and not 0.0 <= default_delay < math.inf:
            raise ValueError(
                f"default_delay must be finite and non-negative, got {default_delay!r}"
            )
        for (a, b), value in delays.items():
            if value < 0:
                raise ValueError(f"negative delay for link {a!r}->{b!r}")
        self._assignment: Tuple[str, ...] = tuple(assignment)
        self.jitter = jitter
        # dict.fromkeys, not set(): first-appearance order is deterministic
        # run-to-run (DET-005)
        self.regions: Tuple[str, ...] = tuple(dict.fromkeys(self._assignment))
        # One base-delay row per *sender region* (``row[receiver]``), shared
        # by every replica of that region: a per-pair lookup is two list
        # indexes and a fan-out profile is one, whatever n is.  A sender's
        # own slot holds the intra-region delay; self pairs never read it.
        by_region = {
            src: [link_delay(delays, src, dst, default_delay) for dst in self._assignment]
            for src in self.regions
        }
        self._rows: List[List[float]] = [by_region[region] for region in self._assignment]

    def region_of(self, replica: int) -> str:
        return self._assignment[replica]

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        if sender == receiver:
            return 0.0
        base = self._rows[sender][receiver]
        return base + rng.random() * self.jitter if self.jitter else base

    def min_delay(self, sender: int, receiver: int) -> float:
        return 0.0 if sender == receiver else self._rows[sender][receiver]

    def multicast_profile(self, sender: int, receivers):
        return self._rows[sender], self.jitter
