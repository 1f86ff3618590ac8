"""Tests for the sharded conservative-parallel DES backend (PR 9).

Covers the full stack: partitioner, lookahead derivation, IPC contracts,
config validation, and — the load-bearing part — **equivalence against the
single-process DES oracle** plus bit-exact within-backend determinism.

Equivalence semantics
---------------------

The sharded runtime gives each worker its own seeded RNG stream (shard-local
jitter draws must not be correlated across processes), so sharded and
single-process runs of the same cell are *different valid schedules* of the
same protocol execution — exactly the relationship the schedule-space fuzzer
(PR 7) establishes between perturbed and unperturbed runs.  Rank labels and
confirmation timestamps are schedule-dependent (ranks are collected from
whichever 2f+1 replies land first), so the oracle compares what the protocol
*guarantees* to be schedule-independent:

* the **set** of confirmed ``(instance, round, payload digest)`` blocks;
* the **per-instance confirmed sequence** of ``(round, digest)`` (each
  instance's log is totally ordered by its consensus rounds);
* the confirmed-block **count**, the **audit verdict** (safety + liveness +
  stalled instances), and the **crash/recovery log**.

Within one backend, determinism is still bit-exact: same (seed, shards)
implies identical full tuples including ranks and timestamps.
"""

import hashlib
import os
from dataclasses import astuple, replace

import pytest

from repro.adversary import get_adversary
from repro.bench.config import ExperimentCell
from repro.bench.sweep import cell_key
from repro.protocols.registry import build_system
from repro.runtime import build_runtime
from repro.protocols.result import RunSnapshot
from repro.runtime.sharded import ShardedSystem, _merge_dynamics_logs, _merge_snapshots
from repro.shard import derive_lookahead, plan_shards
from repro.shard.ipc import (
    ShardSyncError,
    check_flyweight,
    decode_batch,
    derive_shard_seed,
    encode_batch,
    validate_entries,
)
from repro.shard.partition import ShardPlan
from repro.shard.transport import ShardNetwork
from repro.sim.faults import CrashSpec, DegradationSpec, FaultConfig
from repro.scenario import TopologySpec
from repro.scenario.spec import ScenarioSpec
from repro.sim.latency import LatencyModel, UniformLatency
from repro.sim.network import Network, NetworkConfig, NetworkStats
from repro.sim.simulator import Simulator
from test_protocols_systems import result_digest


def wan_latency(n):
    return TopologySpec.wan().build_latency(n)


def lan_latency(n):
    return TopologySpec.lan().build_latency(n)


def flatten(records):
    """The per-receiver ``(arrival, sender, receiver, message)`` deliveries of
    wire records ``(arrivals, sender, receivers, message)``, in order."""
    return [
        (arrival, sender, receiver, message)
        for arrivals, sender, receivers, message in records
        for arrival, receiver in zip(arrivals, receivers)
    ]


class _BoundOnlyLatency(LatencyModel):
    """A model with a delay bound but no topology (``region_of`` inherited)."""

    def min_delay(self, sender, receiver):
        return 0.0 if sender == receiver else 0.01


# ------------------------------------------------------------- partitioner
class TestPartitioner:
    def test_affine_keeps_regions_whole(self):
        latency = wan_latency(16)  # 4 regions, round-robin assignment
        plan = plan_shards(16, 4, latency)
        for shard_members in plan.members_by_shard():
            regions = {latency.region_of(r) for r in shard_members}
            assert len(regions) == 1, "affine placement split a region"
        assert sorted(len(m) for m in plan.members_by_shard()) == [4, 4, 4, 4]

    def test_affine_balances_without_regions(self):
        plan = plan_shards(10, 3, UniformLatency())
        sizes = sorted(len(m) for m in plan.members_by_shard())
        assert sizes == [2, 3, 5] or max(sizes) - min(sizes) <= 3
        assert sum(sizes) == 10

    def test_affine_splits_when_fewer_regions_than_shards(self):
        latency = wan_latency(8)  # 4 regions
        plan = plan_shards(8, 6, latency)
        assert plan.shards == 6
        assert all(plan.members(s) for s in range(6))

    def test_hash_strategy(self):
        plan = plan_shards(8, 3, UniformLatency(), strategy="hash")
        assert plan.assignment == (0, 1, 2, 0, 1, 2, 0, 1)

    def test_plan_is_deterministic(self):
        a = plan_shards(32, 4, wan_latency(32))
        b = plan_shards(32, 4, wan_latency(32))
        assert a == b

    def test_model_without_regions_is_refused(self):
        with pytest.raises(NotImplementedError, match="_BoundOnlyLatency assigns replicas to no regions"):
            plan_shards(8, 2, _BoundOnlyLatency())
        # "hash" placement never asks; the lookahead then does.
        plan = plan_shards(8, 2, _BoundOnlyLatency(), strategy="hash")
        with pytest.raises(NotImplementedError, match="no regions"):
            derive_lookahead(plan, _BoundOnlyLatency())

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="shards must be >= 1"):
            plan_shards(8, 0, UniformLatency())
        with pytest.raises(ValueError, match="cannot spread"):
            plan_shards(2, 3, UniformLatency())
        with pytest.raises(ValueError, match="unknown strategy"):
            plan_shards(8, 2, UniformLatency(), strategy="random")
        with pytest.raises(ValueError, match="every shard"):
            ShardPlan(shards=2, assignment=(0, 0, 0), strategy="affine")


# --------------------------------------------------------------- lookahead
class TestLookahead:
    def test_wan_affine_lookahead_is_the_wan_floor(self):
        latency = wan_latency(8)
        plan = plan_shards(8, 2, latency)
        lookahead = derive_lookahead(plan, latency)
        # Every cross-shard link is inter-region, so the window is the
        # smallest inter-region one-way delay — tens of milliseconds.
        assert lookahead.seconds >= 0.01
        sender, receiver = lookahead.min_pair
        assert latency.region_of(sender) != latency.region_of(receiver)

    def test_hash_placement_shrinks_the_window(self):
        latency = wan_latency(8)
        affine = derive_lookahead(plan_shards(8, 2, latency), latency)
        hashed = derive_lookahead(
            plan_shards(8, 2, latency, strategy="hash"), latency
        )
        assert hashed.seconds <= affine.seconds

    def test_degradation_below_one_shrinks_the_window(self):
        latency = wan_latency(8)
        plan = plan_shards(8, 2, latency)
        base = derive_lookahead(plan, latency)
        faults = FaultConfig(
            degradations=(DegradationSpec(at=1.0, until=2.0, factor=0.5),)
        )
        shrunk = derive_lookahead(plan, latency, faults=faults)
        assert shrunk.min_scale == 0.5
        assert shrunk.seconds == pytest.approx(base.seconds * 0.5)

    def test_slowdown_degradation_does_not_grow_the_window(self):
        latency = wan_latency(8)
        plan = plan_shards(8, 2, latency)
        faults = FaultConfig(
            degradations=(DegradationSpec(at=1.0, until=2.0, factor=4.0),)
        )
        assert derive_lookahead(plan, latency, faults=faults).min_scale == 1.0

    def test_zero_min_delay_is_refused(self):
        plan = plan_shards(8, 2, UniformLatency(base=0.0))
        with pytest.raises(ValueError, match="non-positive lookahead"):
            derive_lookahead(plan, UniformLatency(base=0.0))

    def test_plans_and_lookaheads_equal_the_replaced_models(self):
        # Digests computed at the parent of PR 24 with ``WanLatency(n)`` and
        # the O(n²) replica-pair scan ``UniformLatency`` used to fall into.
        def digest(rows):
            return hashlib.sha256(repr(rows).encode()).hexdigest()

        wan_rows = []
        for n in (8, 16, 32):
            for shards in (2, 3, 4):
                for strategy in ("affine", "hash"):
                    latency = wan_latency(n)
                    plan = plan_shards(n, shards, latency, strategy=strategy)
                    lookahead = derive_lookahead(plan, latency)
                    wan_rows.append(
                        (n, shards, strategy, plan.assignment, astuple(lookahead))
                    )
        assert digest(wan_rows) == (
            "198d78f48376ae1c48581018e545b302edd02b8337981583c590f7c6b9e941c4"
        )
        uniform_rows = []
        for n, shards in ((8, 2), (10, 3), (8, 3)):
            for strategy in ("affine", "hash"):
                latency = UniformLatency()
                plan = plan_shards(n, shards, latency, strategy=strategy)
                lookahead = derive_lookahead(plan, latency)
                # every cross pair ties in one region, so which pair is
                # reported is not part of the contract — that it crosses is
                sender, receiver = lookahead.min_pair
                assert plan.shard_of(sender) != plan.shard_of(receiver)
                uniform_rows.append(
                    (n, shards, strategy, plan.assignment,
                     lookahead.seconds, lookahead.min_propagation)
                )
        assert digest(uniform_rows) == (
            "54c628c273af608dd82b630059e0b9fd0055fdcc4bdfce330a720acf0cc01762"
        )

    def test_requires_two_shards(self):
        latency = lan_latency(8)
        with pytest.raises(ValueError, match=">= 2 shards"):
            derive_lookahead(plan_shards(8, 1, latency), latency)


# --------------------------------------------------------------------- ipc
class TestIpc:
    def test_shard_seeds_are_distinct_and_stable(self):
        seeds = [derive_shard_seed(42, shard) for shard in range(8)]
        assert len(set(seeds)) == 8
        assert seeds == [derive_shard_seed(42, shard) for shard in range(8)]
        assert derive_shard_seed(42, 0) != derive_shard_seed(43, 0)

    def test_batch_roundtrip(self):
        from repro.consensus.messages import Prepare

        message = Prepare(instance=1, view=0, round=3, digest="d" * 8, sender=2)
        entries = [(1.25, 2, 5, message)]
        assert flatten(decode_batch(encode_batch([([1.25], 2, [5], message)]))) == entries

    def test_flyweight_contract(self):
        from repro.consensus.messages import Prepare

        message = Prepare(instance=1, view=0, round=3, digest="d" * 8, sender=2)
        assert check_flyweight(message)
        assert not check_flyweight({"not": "a dataclass"})
        validate_entries([([0.5], 0, [1], message)])
        with pytest.raises(TypeError, match="non-flyweight"):
            validate_entries([([0.5], 0, [1], object())])


# --------------------------------------------------------------- transport
TRANSPORT_N = 8
#: shard 0 hosts the even replicas
TWO_SHARD_PLAN = ShardPlan(
    shards=2, assignment=tuple(r % 2 for r in range(TRANSPORT_N)), strategy="hash"
)
ALL_LOCAL_PLAN = ShardPlan(shards=1, assignment=(0,) * TRANSPORT_N, strategy="hash")


def _drive_transport(plan, general):
    """One traffic script through a plain Network or (``plan``) a shard-0
    ShardNetwork, same seed.  ``general`` turns on loss, duplication and a
    partition, which arms multicast's per-receiver checks.
    Returns the transport and its ``(time, sender, receiver, message)``
    delivery log.
    """
    from repro.consensus.messages import Prepare

    simulator = Simulator(seed=11)
    config = NetworkConfig(
        drop_probability=0.2 if general else 0.0,
        duplicate_probability=0.3 if general else 0.0,
    )
    if plan is None:
        network = Network(simulator, latency=wan_latency(TRANSPORT_N), config=config)
        hosted = range(TRANSPORT_N)
    else:
        network = ShardNetwork(
            simulator, latency=wan_latency(TRANSPORT_N), config=config, plan=plan, shard_id=0
        )
        hosted = plan.members(0)
    log = []
    for node in hosted:
        network.register(
            node,
            lambda sender, message, node=node: log.append(
                (simulator.now(), sender, node, message)
            ),
        )
    if general:
        network.set_partition([[0, 1, 2, 3, 4, 5, 6], [7]])
    everyone = list(range(TRANSPORT_N))
    for phase in range(2):  # the second phase starts with idle uplinks
        message = Prepare(instance=0, view=0, round=phase, digest="d" * 8, sender=0)
        for _ in range(3):
            network.multicast(0, everyone, message, 4096)
        network.multicast(2, [1, 2, 3, 4], message, 256)
        for receiver in everyone:
            network.send(4, receiver, message, 1024)
        simulator.run(until=0.5 * (phase + 1))
    simulator.run()
    return network, log


class TestTransportEquivalence:
    """ShardNetwork *is* the single-process transport plus a router."""

    @pytest.mark.parametrize("general", [False, True], ids=["fast-path", "general-path"])
    def test_all_local_shard_network_is_the_plain_network(self, general):
        plain, plain_log = _drive_transport(None, general)
        shard, shard_log = _drive_transport(ALL_LOCAL_PLAN, general)
        assert plain_log and shard_log == plain_log
        assert shard.stats == plain.stats
        assert shard._rng.getstate() == plain._rng.getstate()
        assert shard.drain_outboxes() == ([], float("inf"))
        if general:
            assert plain.stats.messages_duplicated and plain.stats.drops_by_cause.keys() == {
                "loss", "partition"
            }

    @pytest.mark.parametrize("general", [False, True], ids=["fast-path", "general-path"])
    def test_remote_receivers_go_to_their_outbox_with_the_plain_arrival(self, general):
        plain, plain_log = _drive_transport(None, general)
        shard, shard_log = _drive_transport(TWO_SHARD_PLAN, general)
        # Sender-side effects are the single-process ones...
        assert shard.stats.messages_sent == plain.stats.messages_sent
        assert shard.stats.drops_by_cause == plain.stats.drops_by_cause
        assert shard.stats.messages_duplicated == plain.stats.messages_duplicated
        assert shard._rng.getstate() == plain._rng.getstate()
        # ...local receivers are delivered from the queue, in the same order...
        assert shard_log == [e for e in plain_log if TWO_SHARD_PLAN.assignment[e[2]] == 0]
        # ...and every remote delivery (duplicates included) sits in shard 1's
        # outbox with the arrival the plain Network scheduled.
        frames, min_arrival = shard.drain_outboxes()
        assert [dest for dest, _ in frames] == [1]
        remote = sorted(flatten(decode_batch(frames[0][1])), key=lambda e: e[:3])
        expected = sorted(
            (e for e in plain_log if TWO_SHARD_PLAN.assignment[e[2]] == 1),
            key=lambda e: e[:3],
        )
        assert remote and remote == expected
        assert min_arrival == remote[0][0]

    def test_broadcast_reaches_remote_replicas(self):
        shard, _ = _drive_transport(TWO_SHARD_PLAN, general=False)
        shard.drain_outboxes()
        shard.multicast(0, shard.registered_nodes(), "ping", 64)
        (_, frame), = shard.drain_outboxes()[0]
        assert sorted(e[2] for e in flatten(decode_batch(frame))) == [1, 3, 5, 7]

    def test_shard_network_overrides_no_sending_method(self):
        assert "send" not in vars(ShardNetwork)
        assert "multicast" not in vars(ShardNetwork)


class TestRemoteRecords:
    """``enqueue_remote`` checks every arrival of a record against the
    executed horizon before it schedules any of them."""

    @staticmethod
    def shard_zero():
        from repro.consensus.messages import Prepare

        simulator = Simulator(seed=3)
        network = ShardNetwork(
            simulator, latency=wan_latency(TRANSPORT_N), plan=TWO_SHARD_PLAN, shard_id=0
        )
        log = []
        for node in TWO_SHARD_PLAN.members(0):
            network.register(
                node,
                lambda sender, message, node=node: log.append((simulator.now(), sender, node)),
            )
        network.set_horizon(1.0)
        message = Prepare(instance=0, view=0, round=0, digest="d" * 8, sender=1)
        return simulator, network, message, log

    def test_a_late_second_arrival_raises_naming_the_shard_and_the_sender(self):
        simulator, network, message, _ = self.shard_zero()
        with pytest.raises(ShardSyncError, match=r"shard 0: remote message 1->2 arrives at 0\.875"):
            network.enqueue_remote([([1.5, 0.875], 1, [0, 2], message)])
        assert len(simulator.queue) == 0
        assert network.min_margin == float("inf")

    def test_an_in_bounds_record_leaves_its_smallest_gap_as_the_margin(self):
        simulator, network, message, log = self.shard_zero()
        network.enqueue_remote([([1.5, 1.25, 1.75], 1, [0, 2, 4], message)])
        assert network.min_margin == 0.25
        simulator.run()
        assert log == [(1.25, 1, 2), (1.5, 1, 0), (1.75, 1, 4)]


# ------------------------------------------------------------ config seams
class TestConfigValidation:
    def test_shards_require_the_sharded_runtime(self):
        with pytest.raises(ValueError):
            ExperimentCell(protocol="ladon-pbft", n=8, shards=2)

    def test_sharded_runtime_requires_shards(self):
        with pytest.raises(ValueError):
            ExperimentCell(protocol="ladon-pbft", n=8, runtime="sharded")

    def test_more_shards_than_replicas_rejected(self):
        with pytest.raises(ValueError):
            ExperimentCell(protocol="ladon-pbft", n=4, runtime="sharded", shards=8)

    def test_trace_is_single_process_only(self):
        with pytest.raises(ValueError, match="single-process"):
            ExperimentCell(
                protocol="ladon-pbft", n=8, runtime="sharded", shards=2, trace=True
            )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ExperimentCell(
                protocol="ladon-pbft",
                n=8,
                runtime="sharded",
                shards=2,
                shard_strategy="roulette",
            )

    def test_build_runtime_refers_to_build_system(self):
        with pytest.raises(ValueError, match="build_system"):
            build_runtime("sharded")

    def test_build_system_dispatches_to_sharded(self):
        cell = ExperimentCell(
            protocol="ladon-pbft", n=8, duration=1.0, runtime="sharded", shards=2
        )
        system = build_system(cell)
        assert isinstance(system, ShardedSystem)
        assert system.plan.shards == 2
        assert system.lookahead.seconds > 0
        system.runtime.close()

    def test_cell_label_and_cache_key(self):
        base = ExperimentCell(protocol="ladon-pbft", n=64)
        sharded = replace(base, runtime="sharded", shards=4)
        assert "rt:shardedx4" in sharded.label()
        assert cell_key(base) != cell_key(sharded)
        assert cell_key(sharded) != cell_key(replace(sharded, shards=2))


# ----------------------------------------------------- dynamics-log merging
class TestDynamicsMerge:
    def test_global_kinds_come_from_shard_zero_only(self):
        logs = [
            [(1.0, "partition", "groups=2"), (2.0, "crash", "replica 0")],
            [(1.0, "partition", "groups=2"), (3.0, "crash", "replica 5")],
        ]
        merged = _merge_dynamics_logs(logs)
        assert merged == [
            (1.0, "partition", "groups=2"),
            (2.0, "crash", "replica 0"),
            (3.0, "crash", "replica 5"),
        ]

    def test_attack_entries_dedupe_exact_duplicates(self):
        logs = [
            [(1.0, "attack:equivocation", "on")],
            [(1.0, "attack:equivocation", "on"), (2.0, "attack:silence", "on")],
        ]
        merged = _merge_dynamics_logs(logs)
        assert merged.count((1.0, "attack:equivocation", "on")) == 1
        assert (2.0, "attack:silence", "on") in merged


# --------------------------------------------------- equivalence vs oracle
def confirmed_set(result):
    return {
        (c.block.instance, c.block.round, c.block.payload_digest)
        for c in result.confirmed
    }


def per_instance_sequences(result):
    sequences = {}
    for c in result.confirmed:
        sequences.setdefault(c.block.instance, []).append(
            (c.block.round, c.block.payload_digest)
        )
    return sequences


def full_tuples(result):
    return [
        (
            c.block.instance,
            c.block.round,
            c.block.rank,
            c.block.payload_digest,
            c.confirmed_at,
        )
        for c in result.confirmed
    ]


#: the oracle cells (cell, custom faults, shards): four protocol families,
#: plus crash/recovery and straggler cells, across 2/3/4-shard plans
ORACLE_CELLS = [
    pytest.param(
        ExperimentCell(
            protocol="ladon-pbft", n=8, duration=5.0, batch_size=64, seed=7
        ),
        None,
        2,
        id="ladon-pbft-2sh",
    ),
    pytest.param(
        ExperimentCell(protocol="iss-pbft", n=8, duration=5.0, batch_size=64, seed=3),
        None,
        2,
        id="iss-pbft-2sh",
    ),
    pytest.param(
        ExperimentCell(protocol="mir", n=8, duration=5.0, batch_size=64, seed=5),
        None,
        4,
        id="mir-4sh",
    ),
    pytest.param(
        ExperimentCell(protocol="dqbft", n=8, duration=5.0, batch_size=64, seed=1),
        None,
        2,
        id="dqbft-2sh",
    ),
    pytest.param(
        ExperimentCell(
            protocol="ladon-pbft",
            n=12,
            duration=6.0,
            batch_size=64,
            seed=11,
        ),
        FaultConfig(crashes=(CrashSpec(replica=3, at=2.0, recover_at=4.0),)),
        3,
        id="crash-recover-3sh",
    ),
    pytest.param(
        ExperimentCell(
            protocol="ladon-pbft",
            n=8,
            duration=5.0,
            batch_size=64,
            seed=2,
        ),
        FaultConfig.with_stragglers(2, 8, slowdown=10.0, seed=2),
        2,
        id="stragglers-2sh",
    ),
]


#: metrics.extra keys only the sharded runtime adds
SHARD_EXTRAS = ("shards", "sync_rounds", "lookahead_ms", "sync_min_margin_ms")


class TestEquivalence:
    @pytest.mark.parametrize("cell,faults,shards", ORACLE_CELLS)
    def test_sharded_matches_single_process_oracle(self, cell, faults, shards):
        single = build_system(cell, faults=faults).run()
        sharded = build_system(
            replace(cell, runtime="sharded", shards=shards), faults=faults
        ).run()

        assert len(sharded.confirmed) == len(single.confirmed)
        assert confirmed_set(sharded) == confirmed_set(single)
        assert per_instance_sequences(sharded) == per_instance_sequences(single)
        assert sharded.audit.safety_ok == single.audit.safety_ok
        assert sharded.audit.live == single.audit.live
        assert sharded.audit.stalled_instances == single.audit.stalled_instances
        assert sorted(sharded.crash_log) == sorted(single.crash_log)

    def test_sharded_run_is_bit_deterministic(self):
        cell = ExperimentCell(
            protocol="ladon-pbft",
            n=8,
            duration=5.0,
            batch_size=64,
            seed=7,
            runtime="sharded",
            shards=2,
        )
        first = build_system(cell).run()
        second = build_system(cell).run()
        assert full_tuples(first) == full_tuples(second)
        assert first.metrics.extra["sync_rounds"] == second.metrics.extra["sync_rounds"]
        assert first.metrics.extra.get("sync_min_margin_ms") == second.metrics.extra.get(
            "sync_min_margin_ms"
        )

    def test_lookahead_safety_margin_never_negative(self):
        # ShardSyncError would have aborted the run; the recorded minimum
        # margin double-checks that no remote arrival ever landed at or
        # before a shard's executed horizon.
        cell = ExperimentCell(
            protocol="ladon-pbft",
            n=8,
            duration=5.0,
            batch_size=64,
            seed=9,
            runtime="sharded",
            shards=4,
        )
        result = build_system(cell).run()
        assert result.metrics.extra["shards"] == 4.0
        assert result.metrics.extra["sync_rounds"] > 0
        assert result.metrics.extra["lookahead_ms"] > 0
        margin = result.metrics.extra.get("sync_min_margin_ms")
        assert margin is not None and margin >= 0.0

    def test_adversary_cell_has_the_single_process_result_shape(self):
        # Both facades end in the one assembly: same metrics.extra key
        # sequence and the same injection-ordered crash log — two crashes at
        # one instant, on different shards, declared in descending id order.
        cell = ExperimentCell(
            protocol="ladon-pbft", n=8, duration=5.0, batch_size=64, seed=4
        )
        faults = FaultConfig(
            crashes=(
                CrashSpec(replica=6, at=2.0, recover_at=4.0),
                CrashSpec(replica=1, at=2.0, recover_at=4.0),
            ),
            adversary=get_adversary("equivocation"),
        )
        single = build_system(cell, faults=faults).run()
        system = build_system(replace(cell, runtime="sharded", shards=2), faults=faults)
        assert system.plan.shard_of(6) != system.plan.shard_of(1)
        sharded = system.run()
        assert single.crash_log == [
            (2.0, 6, "crash"), (2.0, 1, "crash"), (4.0, 6, "recover"), (4.0, 1, "recover")
        ]
        assert sharded.crash_log == single.crash_log
        assert [k for k in sharded.metrics.extra if k not in SHARD_EXTRAS] == list(
            single.metrics.extra
        )
        assert "adversary_forged" in single.metrics.extra

    def test_both_facades_split_run_into_runtime_run_and_collect_result(self):
        cell = ExperimentCell(
            protocol="iss-pbft", n=8, duration=2.0, batch_size=64, runtime="sharded", shards=2
        )
        system = build_system(cell)
        system.runtime.run(until=cell.duration)
        assert len(system.collect_result().confirmed) == len(build_system(cell).run().confirmed)

    def test_worker_rss_accounting(self):
        cell = ExperimentCell(
            protocol="ladon-pbft",
            n=8,
            duration=2.0,
            batch_size=64,
            seed=0,
            runtime="sharded",
            shards=2,
        )
        system = build_system(cell)
        system.run()
        workers = system.runtime.worker_peak_rss_bytes
        assert len(workers) == 2
        assert all(rss > 0 for rss in workers)
        assert system.runtime.total_peak_rss_bytes() >= sum(workers)


#: a WAN with loss and duplication armed: the router sees dropped receivers
#: and duplicate ``(arrival, receiver)`` pairs inside one fan-out
LOSSY_WAN = ScenarioSpec(name="lossy-wan", drop_probability=0.02, duplicate_probability=0.05)

#: cell -> (cell, custom scenario, result_digest computed before cross-shard traffic moved
#: from one ``(arrival, sender, receiver, message)`` entry per receiver to one
#: ``(arrivals, sender, receivers, message)`` record per fan-out and shard,
#: and before the worker kept the collector off between windows)
PINNED_SHARDED_RESULTS = {
    "ladon-pbft-wan-affine-2sh": (
        ExperimentCell(
            protocol="ladon-pbft", n=8, duration=5.0, batch_size=64, seed=7,
            epoch_length=16, runtime="sharded", shards=2,
        ),
        None,
        "e8a03d3658407c1980afc0924662d3de24a1a430509c46ed4abdbff22a54d54c",
    ),
    "lossy-wan-hash-2sh": (
        ExperimentCell(
            protocol="ladon-pbft", n=8, duration=6.0, batch_size=64, seed=5,
            epoch_length=16, runtime="sharded", shards=2, shard_strategy="hash",
        ),
        LOSSY_WAN,
        "bff9f425e70e6e31bc58c10593f516e23f6de7d7c5da7a2561e282d00ef37796",
    ),
}


class TestPinnedShardedResults:
    @pytest.mark.parametrize("cell", sorted(PINNED_SHARDED_RESULTS))
    def test_full_result_digest_is_pinned(self, cell):
        config, scenario, expected = PINNED_SHARDED_RESULTS[cell]
        result = build_system(config, scenario=scenario).run()
        if scenario is LOSSY_WAN:
            stats = result.network_stats
            assert stats.messages_duplicated and stats.drops_by_cause["loss"]
        assert result_digest(result) == expected


# ---------------------------------------------------------- one result path
class TestOneResultPath:
    """Structural guards: the result is read once and assembled once."""

    def test_the_hub_has_no_assembly_of_its_own(self):
        assert "_merge" not in vars(ShardedSystem)
        assert "collect_result" in vars(ShardedSystem)

    @staticmethod
    def _part(replica, partially_committed=None, confirmed=()):
        return RunSnapshot(
            commit_logs={replica: {}}, confirmed_fps={replica: []}, view_change_log=[],
            crash_log=[], event_log=[], adversary_stats=None, resources={},
            net_stats=NetworkStats(), partially_committed=partially_committed,
            confirmed=confirmed,
        )

    def test_the_observer_log_comes_from_the_shard_hosting_it(self):
        # a count of 0 still marks the host: only None means "not here"
        log = ("confirmed",)
        parts = [self._part(1), self._part(0, 0, log)]
        merged = _merge_snapshots(parts, NetworkStats(), crashes=())
        assert merged.partially_committed == 0
        assert merged.confirmed is log

    def test_exactly_one_shard_hosts_the_observer(self):
        with pytest.raises(RuntimeError):
            _merge_snapshots([self._part(0), self._part(1)], NetworkStats(), crashes=())

    @pytest.mark.parametrize(
        "needle",
        ["= summarise(", ".confirmed_fingerprints()", "* config.view_change_timeout"],
    )
    def test_result_building_call_sites_occur_once(self, needle):
        root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        hits = []
        for directory, _dirs, files in os.walk(root):
            for name in files:
                path = os.path.join(directory, name)
                # the analytical engine summarises its own block-level model
                if not name.endswith(".py") or path.endswith("bench/analytical.py"):
                    continue
                with open(path) as handle:
                    hits += [path for line in handle if needle in line]
        assert len(hits) == 1, hits
