"""Conservative-parallel DES support: partitioning, lookahead, IPC, transport.

This package is the machinery behind
:class:`repro.runtime.sharded.ShardedDESRuntime`: it decides which replicas
live on which worker process (:mod:`repro.shard.partition`), derives the
provably-safe synchronization window from the scenario's minimum cross-shard
delay (:mod:`repro.shard.lookahead`), frames cross-shard message batches for
the IPC channel (:mod:`repro.shard.ipc`), splits the network fan-out into
local queue pushes and remote outbox appends (:mod:`repro.shard.transport`),
and runs the per-worker barrier loop (:mod:`repro.shard.worker`).

Everything here is message-passing only: workers share no mutable state
(enforced by the SHARD-001 staticcheck rule), and every payload crossing the
process boundary is a frozen-slots flyweight riding the framed channel in
:mod:`repro.shard.ipc` (SHARD-002).
"""

from __future__ import annotations

from repro.shard.lookahead import Lookahead, derive_lookahead
from repro.shard.partition import ShardPlan, plan_shards

__all__ = [
    "Lookahead",
    "ShardPlan",
    "derive_lookahead",
    "plan_shards",
]
