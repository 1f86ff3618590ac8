"""Block-level analytical performance engine.

The message-level simulator reproduces protocol behaviour exactly but costs
O(n^2) events per block, which makes the 64–128 replica sweeps of Fig. 5/6/7
and Fig. 10 impractically slow to regenerate routinely.  This engine keeps
the *ordering-layer* code identical (it feeds the very same
``DynamicOrderer`` / ``PredeterminedOrderer`` / ``DQBFTOrderer`` classes) and
replaces per-message simulation with a per-block timing model:

* each instance proposes on its schedule (total block rate capped at
  16 blocks/s WAN or 32 blocks/s LAN, stragglers at 1/k of their share and
  with empty blocks);
* a block's partial-commit latency is the leader's batch dissemination time
  ((n-1) x batch bytes / 1 Gbps, serialised on its uplink) plus the quorum
  round trips of its consensus protocol (3 one-way quorum delays for PBFT;
  chained HotStuff additionally waits for its 3-chain successors);
* Ladon ranks follow the pipelined collection rule (a proposal's rank is one
  above the highest rank certified by the time of the instance's previous
  commit, plus the leader's own fresh observation for honest leaders);
* DQBFT adds the ordering instance's consensus latency to every block and a
  sequencer service time that grows with n, modelling the central leader
  bottleneck.

The absolute numbers are a model; the comparative shapes (who wins, by what
factor, where DQBFT bends over) are what the figures check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.config import ExperimentCell
from repro.core.block import Block
from repro.core.dqbft_ordering import DQBFTOrderer
from repro.core.ordering import DynamicOrderer, GlobalOrderer
from repro.core.predetermined import PredeterminedOrderer
from repro.metrics.collector import RunMetrics, summarise


GIGABIT_BYTES_PER_S = 125_000_000.0

#: one-way quorum delay (seconds) used for the 2f+1-th fastest replica
_QUORUM_DELAY = {"wan": 0.095, "lan": 0.0008}
#: jitter applied per phase
_QUORUM_JITTER = {"wan": 0.02, "lan": 0.0004}

#: bytes per transaction payload (the paper's 500-byte transactions)
_PAYLOAD_BYTES = 500

#: DQBFT sequencer service time per sequenced block, per replica in the
#: system (signature verification + ordering-instance fan-out at the leader)
_DQBFT_SEQUENCER_SERVICE_PER_REPLICA = 0.001


@dataclass
class _PlannedBlock:
    """A block plus its model-computed commit time."""

    block: Block
    commit_time: float


def _family(protocol: str) -> str:
    if "hotstuff" in protocol:
        return "hotstuff"
    return "pbft"


def _orderer_for(protocol: str, m: int) -> GlobalOrderer:
    if protocol.startswith("ladon"):
        return DynamicOrderer(num_instances=m)
    if protocol.startswith("dqbft"):
        return DQBFTOrderer(num_instances=m)
    return PredeterminedOrderer(num_instances=m)


def _dissemination_time(cell: ExperimentCell, empty: bool) -> float:
    """Time the leader's uplink is busy pushing one proposal to n-1 backups."""
    if empty:
        batch_bytes = 0
    else:
        batch_bytes = cell.batch_size * _PAYLOAD_BYTES
    return (cell.n - 1) * batch_bytes / GIGABIT_BYTES_PER_S


def _consensus_latency(cell: ExperimentCell, rng: random.Random, phases: int = 3) -> float:
    """Quorum phase latency: ``phases`` one-way quorum delays plus jitter."""
    base = _QUORUM_DELAY[cell.environment]
    jitter = _QUORUM_JITTER[cell.environment]
    return sum(base + rng.random() * jitter for _ in range(phases))


def _plan_blocks(cell: ExperimentCell) -> List[_PlannedBlock]:
    """Plan every block's proposal and partial-commit time."""
    rng = random.Random(cell.seed)
    faults = cell.fault_config()
    m = cell.n  # one instance per replica
    interval = m / cell.block_rate()
    family = _family(cell.protocol)
    is_ladon = cell.protocol.startswith("ladon")

    planned: List[_PlannedBlock] = []
    proposals: List[Tuple[float, int, int]] = []  # (time, instance, round)
    for instance in range(m):
        slowdown = faults.slowdown_of(instance)
        inst_interval = interval * slowdown
        offset = (instance / m) * interval
        t = offset + 1e-6
        round = 1
        while t <= cell.duration:
            proposals.append((t, instance, round))
            t += inst_interval
            round += 1
    proposals.sort()

    # curRank is the highest rank certified by any committed block so far.
    # Honest leaders effectively propose one above the freshest rank they can
    # observe (their own observation is part of the report set), so their
    # ranks follow the running maximum over proposal order; only Byzantine
    # leaders need the explicit "certified by time t" query, which scans the
    # commit events of the (few) blocks committed so far.
    cur_rank_events: List[Tuple[float, int]] = []  # (commit_time, rank)

    def rank_certified_by(time: float) -> int:
        best = 0
        for commit_time, rank in cur_rank_events:
            if commit_time <= time and rank > best:
                best = rank
        return best

    pending_rank = 0  # running max over planned ranks, used for honest leaders

    for proposed_at, instance, round in proposals:
        straggler = faults.is_straggler(instance)
        byzantine = faults.is_byzantine(instance)
        empty = straggler
        dissemination = _dissemination_time(cell, empty)
        if family == "hotstuff":
            # A chained-HotStuff block needs its 3 successors' proposals; the
            # successor cadence follows the instance's own proposal interval.
            chain_wait = 3 * interval * faults.slowdown_of(instance)
            latency = dissemination + _consensus_latency(cell, rng, phases=2) + chain_wait
        else:
            latency = dissemination + _consensus_latency(cell, rng, phases=3)
        commit_time = proposed_at + latency

        if is_ladon:
            if byzantine:
                # Lowest-2f+1 manipulation: the leader may ignore reports newer
                # than its previous commit phase (one straggler period ago).
                stale_horizon = proposed_at - interval * faults.slowdown_of(instance)
                rank = rank_certified_by(max(0.0, stale_horizon)) + 1
            else:
                rank = pending_rank + 1
            pending_rank = max(pending_rank, rank)
        else:
            rank = round

        block = Block(
            instance=instance,
            round=round,
            rank=rank,
            epoch=0,
            proposer=instance,
            proposed_at=proposed_at,
            committed_at=commit_time,
            tx_count_hint=0 if empty else cell.batch_size,
            batch_submitted_at=max(0.0, proposed_at - interval / 2.0),
        )
        planned.append(_PlannedBlock(block=block, commit_time=commit_time))
        if is_ladon:
            cur_rank_events.append((commit_time, rank))
    return planned


def _dqbft_sequencing_times(
    cell: ExperimentCell, planned: List[_PlannedBlock], rng: random.Random
) -> Dict[Tuple[int, int], float]:
    """Decide when the DQBFT ordering instance sequences each block.

    Blocks queue at the sequencer in commit order; each needs a service time
    proportional to n (verification + fan-out at the central leader) plus the
    ordering instance's own consensus latency.
    """
    service = _DQBFT_SEQUENCER_SERVICE_PER_REPLICA * cell.n
    sequencer_free_at = 0.0
    decisions: Dict[Tuple[int, int], float] = {}
    for item in sorted(planned, key=lambda p: p.commit_time):
        start = max(sequencer_free_at, item.commit_time)
        sequencer_free_at = start + service
        decided_at = sequencer_free_at + _consensus_latency(cell, rng, phases=3)
        decisions[(item.block.instance, item.block.round)] = decided_at
    return decisions


def run_analytical(cell: ExperimentCell) -> RunMetrics:
    """Run the block-level model and summarise it like a DES run."""
    planned = _plan_blocks(cell)
    orderer = _orderer_for(cell.protocol, cell.n)
    partially_committed = 0
    rng = random.Random(cell.seed + 17)

    events: List[Tuple[float, str, _PlannedBlock]] = [
        (item.commit_time, "commit", item) for item in planned
    ]
    if cell.protocol.startswith("dqbft"):
        decisions = _dqbft_sequencing_times(cell, planned, rng)
        for item in planned:
            decided_at = decisions[(item.block.instance, item.block.round)]
            events.append((decided_at, "decide", item))
    events.sort(key=lambda e: (e[0], e[1]))

    for time, kind, item in events:
        if time > cell.duration:
            continue
        if kind == "commit":
            partially_committed += 1
            orderer.add_partially_committed(item.block, time)
        else:
            assert isinstance(orderer, DQBFTOrderer)
            orderer.add_sequencing_decision(item.block.block_id, time)

    return summarise(
        orderer.confirmed,
        partially_committed,
        protocol=cell.protocol,
        n=cell.n,
        stragglers=cell.stragglers,
        duration=cell.duration,
    )
