"""Replica -> shard placement for the conservative-parallel DES.

The lookahead of the sharded runtime is the *minimum cross-shard* link
delay, so placement decides how much parallel slack the barrier protocol
gets.  Two strategies:

* ``"affine"`` (default) — region-affine placement: replicas in the same
  region (as reported by the latency model's ``region_of``) stay on the same
  shard whenever ``shards <= #regions``, so every cross-shard link is a WAN
  link and the lookahead is the WAN floor (tens of milliseconds) rather than
  the intra-region floor (sub-millisecond).  Each consensus instance's
  leader traffic is symmetric across regions, so this is also the
  instance-affine choice: the instances a shard's replicas lead stay paced
  by shard-local timers.  A single-region model (the LAN, ``UniformLatency``)
  degrades to balanced contiguous blocks.
* ``"hash"`` — ``replica % shards``: the fallback that ignores topology.
  Correct under any model, but in a WAN it splits every region across
  shards and shrinks the lookahead to the intra-region floor.

Regions come from :meth:`~repro.sim.latency.LatencyModel.region_of`; a model
that leaves it unimplemented (the base class raises a named
``NotImplementedError``) has no topology to place by and is refused,
exactly like a model without a ``min_delay`` bound.

Placement is a pure function of ``(n, shards, latency model, strategy)`` —
no RNG — so the same cell always produces the same plan (sweep-cache and
determinism-test requirement).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.sim.latency import LatencyModel

#: placement strategies accepted by :func:`plan_shards`
STRATEGIES = ("affine", "hash")


@dataclass(frozen=True)
class ShardPlan:
    """An immutable replica -> shard assignment."""

    shards: int
    #: ``assignment[replica_id]`` is the shard hosting that replica
    assignment: Tuple[int, ...]
    strategy: str

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a plan needs at least one shard")
        used = sorted(dict.fromkeys(self.assignment))
        if used != list(range(self.shards)):
            raise ValueError(
                f"assignment uses shards {used}, expected 0..{self.shards - 1} "
                "(every shard must host at least one replica)"
            )

    @property
    def n(self) -> int:
        return len(self.assignment)

    def shard_of(self, replica: int) -> int:
        return self.assignment[replica]

    def members(self, shard: int) -> Tuple[int, ...]:
        return tuple(
            replica
            for replica, owner in enumerate(self.assignment)
            if owner == shard
        )

    def members_by_shard(self) -> List[Tuple[int, ...]]:
        by_shard: List[List[int]] = [[] for _ in range(self.shards)]
        for replica, owner in enumerate(self.assignment):
            by_shard[owner].append(replica)
        return [tuple(members) for members in by_shard]

    def describe(self) -> str:
        sizes = [len(m) for m in self.members_by_shard()]
        return f"{self.strategy}({self.shards} shards, sizes={sizes})"


def _region_groups(n: int, latency: LatencyModel) -> List[List[int]]:
    """Replicas grouped by region, in first-appearance region order."""
    groups: Dict[str, List[int]] = {}
    for replica in range(n):
        groups.setdefault(latency.region_of(replica), []).append(replica)
    return list(groups.values())


def _affine_assignment(n: int, shards: int, latency: LatencyModel) -> List[int]:
    """Region-affine placement, balanced by replica count.

    Groups (regions) are assigned whole to the least-loaded shard (longest
    processing time greedy, deterministic tie-break on shard id).  If there
    are fewer groups than shards, the largest groups are split — the
    lookahead then drops to the intra-region floor, which
    :func:`repro.shard.lookahead.derive_lookahead` reports honestly.
    """
    groups = _region_groups(n, latency)
    # Split the largest groups until there is one per shard.  Stable order:
    # groups keep their first-appearance order, splits append halves in
    # place of the original.
    while len(groups) < shards:
        largest_index = max(range(len(groups)), key=lambda i: len(groups[i]))
        largest = groups[largest_index]
        if len(largest) < 2:
            raise ValueError(
                f"cannot split {n} replicas across {shards} shards: "
                "a shard would be empty"
            )
        half = len(largest) // 2
        groups[largest_index : largest_index + 1] = [largest[:half], largest[half:]]
    # Greedy balance: biggest group first onto the least-loaded shard.
    order = sorted(range(len(groups)), key=lambda i: (-len(groups[i]), i))
    loads = [0] * shards
    assignment = [0] * n
    for group_index in order:
        shard = min(range(shards), key=lambda s: (loads[s], s))
        for replica in groups[group_index]:
            assignment[replica] = shard
        loads[shard] += len(groups[group_index])
    return assignment


def plan_shards(
    n: int,
    shards: int,
    latency: LatencyModel,
    strategy: str = "affine",
) -> ShardPlan:
    """Place ``n`` replicas on ``shards`` workers under ``strategy``."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    if shards > n:
        raise ValueError(f"cannot spread n={n} replicas across {shards} shards")
    if strategy == "hash":
        assignment = [replica % shards for replica in range(n)]
    elif strategy == "affine":
        assignment = _affine_assignment(n, shards, latency)
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    return ShardPlan(shards=shards, assignment=tuple(assignment), strategy=strategy)
