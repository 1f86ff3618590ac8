"""Lookahead derivation: how far a shard may run past the barrier.

Conservative parallel DES is safe iff no shard executes past the earliest
time a not-yet-seen cross-shard message could arrive.  In this transport
(see :class:`repro.sim.network.Network`) a message sent at time ``t``
arrives at

    ``t + transmission + propagation * latency_scale + processing_delay``

with ``transmission >= 0``, ``propagation >= min_delay(sender, receiver)``
(the latency model's deterministic lower bound), and ``latency_scale``
following the scenario's degradation timeline.  The **lookahead** is

    ``L = min over cross-shard (s, r) of min_delay(s, r) * min_scale
        + processing_delay``

where ``min_scale`` is the smallest latency scale the fault timeline can
ever install (degradation factors below 1.0 shrink delays, so they shrink
the lookahead too).  Any message sent during a synchronized window
``[T, T + L)`` therefore arrives at ``>= T + L`` — messages exchanged at a
barrier are never needed inside the window that produced them, which is the
safety proof :class:`repro.runtime.sharded.ShardedDESRuntime` relies on.

Derivation is exact, not sampled: ``min_delay`` depends only on the region
pair (the :class:`~repro.sim.latency.LatencyModel` contract), so it
enumerates one representative per (shard, region) — O(regions²) pairs,
whatever n is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.shard.partition import ShardPlan
from repro.sim.faults import FaultConfig
from repro.sim.latency import LatencyModel
from repro.sim.network import NetworkConfig


@dataclass(frozen=True)
class Lookahead:
    """The derived synchronization window and its provenance."""

    #: the safe window width in simulated seconds (> 0)
    seconds: float
    #: minimum cross-shard propagation bound before scaling (diagnostics)
    min_propagation: float
    #: smallest latency scale the fault timeline can install
    min_scale: float
    #: the receiver-side processing delay folded into every arrival
    processing_delay: float
    #: the (sender, receiver) pair realising the minimum (diagnostics)
    min_pair: Tuple[int, int]

    def describe(self) -> str:
        return (
            f"L={self.seconds * 1e3:.3f}ms "
            f"(min propagation {self.min_propagation * 1e3:.3f}ms "
            f"x scale {self.min_scale} + processing "
            f"{self.processing_delay * 1e6:.0f}us, "
            f"link {self.min_pair[0]}->{self.min_pair[1]})"
        )


def _min_cross_pair(
    plan: ShardPlan, latency: LatencyModel
) -> Tuple[float, Tuple[int, int]]:
    """The smallest ``min_delay`` over ordered cross-shard replica pairs."""
    # One representative replica per (shard, region): min_delay depends
    # only on the region pair, so O(regions²) pairs suffice.
    reps: Dict[Tuple[int, str], int] = {}
    for replica, shard in enumerate(plan.assignment):
        reps.setdefault((shard, latency.region_of(replica)), replica)
    entries: List[Tuple[int, int]] = [
        (shard, replica) for (shard, _region), replica in sorted(reps.items())
    ]
    best = float("inf")
    best_pair = (-1, -1)
    for shard_a, sender in entries:
        for shard_b, receiver in entries:
            if shard_a == shard_b:
                continue
            bound = latency.min_delay(sender, receiver)
            if bound < best:
                best = bound
                best_pair = (sender, receiver)
    return best, best_pair


def derive_lookahead(
    plan: ShardPlan,
    latency: LatencyModel,
    network_config: Optional[NetworkConfig] = None,
    faults: Optional[FaultConfig] = None,
) -> Lookahead:
    """Derive the provably-safe barrier window for ``plan`` on ``latency``."""
    if plan.shards < 2:
        raise ValueError("lookahead is only defined for >= 2 shards")
    min_propagation, min_pair = _min_cross_pair(plan, latency)
    min_scale = 1.0
    if faults is not None:
        for spec in faults.degradations:
            if spec.factor < min_scale:
                min_scale = spec.factor
    processing_delay = (
        network_config.processing_delay if network_config is not None else 0.0
    )
    seconds = min_propagation * min_scale + processing_delay
    if not seconds > 0.0:
        raise ValueError(
            "non-positive lookahead: the minimum cross-shard delay bound is "
            f"{min_propagation} (pair {min_pair}) x scale {min_scale} + "
            f"processing {processing_delay}; this scenario's latency model "
            "gives the conservative barrier no safe window — run it on the "
            "single-process DES instead"
        )
    return Lookahead(
        seconds=seconds,
        min_propagation=min_propagation,
        min_scale=min_scale,
        processing_delay=processing_delay,
        min_pair=min_pair,
    )
