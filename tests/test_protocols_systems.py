"""Integration tests: end-to-end Multi-BFT systems on the simulator.

These use small deployments (n = 4-7, small batches, short durations) so the
whole module runs in a few seconds while still exercising the full message
path: pacing -> consensus instances -> global ordering -> metrics.
"""

import dataclasses
import hashlib
import importlib.util
import math
from functools import partial

import pytest

from repro.adversary import AdversarySpec, RankManipulation, get_adversary
from repro.bench.config import ExperimentCell
from repro.consensus.hotstuff import HotStuffInstance
from repro.consensus.messages import CheckpointMessage
from repro.metrics.auditor import audit_system
from repro.protocols.base import HOTSTUFF_STACKS
from repro.protocols.registry import (
    _ALIASES,
    available_protocols,
    build_system,
    replica_class,
    resolve_protocol,
)
from repro.scenario.dynamics import Churn
from repro.scenario.spec import ScenarioSpec
from repro.sim.faults import CrashSpec, FaultConfig, StragglerSpec


def small_system(protocol, n=4, duration=6.0, stragglers=0, byzantine=False,
                 faults=None, **kwargs):
    """A built n=4 LAN system at 8 blocks/s; ``stragglers`` sampled with seed 3."""
    if faults is None:
        faults = (
            FaultConfig.with_stragglers(stragglers, n, slowdown=5.0, byzantine=byzantine, seed=3)
            if stragglers
            else FaultConfig()
        )
    cell = ExperimentCell(
        protocol=protocol,
        n=n,
        batch_size=64,
        total_block_rate=8.0,
        duration=duration,
        environment="lan",
        seed=1,
        **kwargs,
    )
    return build_system(cell, faults=faults)


#: replica 1, which leads instance 1, is down from t=4 to t=30
LEADER_DOWN = ScenarioSpec(
    name="leader-down",
    dynamics=(Churn(start=4.0, period=100.0, downtime=26.0, cycles=1, replicas=(1,)),),
)


def leader_down_system(protocol):
    cell = ExperimentCell(protocol=protocol, n=8, batch_size=64, duration=40.0, seed=1)
    return build_system(cell, scenario=LEADER_DOWN)


class TestRegistry:
    def test_all_protocols_listed(self):
        names = available_protocols()
        for expected in ("ladon-pbft", "ladon-opt", "ladon-hotstuff", "iss-pbft", "iss-hotstuff", "mir", "rcc", "dqbft"):
            assert expected in names

    def test_aliases_resolve(self):
        assert resolve_protocol("ladon") == "ladon-pbft"
        assert resolve_protocol("iss") == "iss-pbft"
        assert resolve_protocol("dqbft-pbft") == "dqbft"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError):
            resolve_protocol("raft")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentCell(protocol="ladon-pbft", n=3)
        with pytest.raises(ValueError):
            ExperimentCell(protocol="ladon-pbft", n=4, environment="moon")
        with pytest.raises(ValueError):
            ExperimentCell(protocol="ladon-pbft", n=4, total_block_rate=0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("field", ["propose_timeout", "view_change_timeout"])
    def test_bad_timeout_is_refused_by_name(self, field, value):
        # propose_timeout=0.0 used to run to completion with 0 tps and an
        # all-live audit; the others failed deep in the event queue.
        with pytest.raises(ValueError, match=field):
            ExperimentCell(protocol="ladon-pbft", n=4, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [(f, v) for f in ("duration", "total_block_rate") for v in (0.0, -1.0, math.inf, math.nan)]
        + [(f, v) for f in ("batch_size", "epoch_length") for v in (0, -1)],
    )
    def test_bad_run_size_is_refused_by_name(self, field, value):
        # total_block_rate=inf used to run and report 54,340 tx/s at n=4;
        # duration=0 and batch_size=0 reported 0 tx/s; duration=-1 failed
        # with "clock cannot move backwards"; NaN failed in the event queue.
        with pytest.raises(ValueError, match=field):
            ExperimentCell(protocol="ladon-pbft", n=4, **{field: value})

    def test_hotstuff_stacks_are_exactly_the_hotstuff_rows(self):
        # A new HotStuff row must join the refusal set, or it would arm a
        # propose timer nothing can act on.
        rows = {
            name
            for name in available_protocols()
            if issubclass(replica_class(name).keywords["instance_cls"], HotStuffInstance)
        }
        assert HOTSTUFF_STACKS == rows
        # The refusal reads the protocol name unresolved: no alias may name one.
        assert not [alias for alias in _ALIASES if resolve_protocol(alias) in rows]


@pytest.mark.parametrize("protocol", ["ladon-pbft", "ladon-opt", "iss-pbft", "mir", "rcc", "dqbft"])
class TestEveryPBFTSystemMakesProgress:
    def test_confirms_blocks_and_txs(self, protocol):
        result = small_system(protocol).run()
        metrics = result.metrics
        assert metrics.confirmed_blocks > 10
        assert metrics.confirmed_txs > 500
        assert metrics.throughput_tps > 0
        assert 0 < metrics.average_latency_s < 5.0


@pytest.mark.parametrize("protocol", ["ladon-hotstuff", "iss-hotstuff"])
class TestHotStuffSystemsMakeProgress:
    def test_confirms_blocks(self, protocol):
        result = small_system(protocol, duration=10.0).run()
        assert result.metrics.confirmed_blocks > 5
        assert result.metrics.confirmed_txs > 300


@pytest.mark.parametrize("protocol", ["ladon-hotstuff", "iss-hotstuff"])
class TestHotStuffLeaderFailure:
    """HotStuff stacks have a stable leader and no view change."""

    def test_propose_timeout_is_refused_by_name(self, protocol):
        with pytest.raises(ValueError, match="propose_timeout"):
            ExperimentCell(protocol=protocol, n=16, propose_timeout=2.0)

    def test_instance_waits_for_its_crashed_leader_then_resumes(self, protocol):
        result = leader_down_system(protocol).run()
        assert result.audit.safety_ok
        assert result.audit.stalled_instances == ()
        assert any(
            c.block.instance == 1 and c.block.proposed_at > 30.0 for c in result.confirmed
        ), "instance 1 never committed a block proposed after its leader recovered"


class TestLadonBehaviour:
    def test_ladon_global_order_respects_rank_then_instance(self):
        result = small_system("ladon-pbft").run()
        keys = [(c.block.rank, c.block.instance) for c in result.confirmed]
        assert keys == sorted(keys)

    def test_ladon_sn_consecutive(self):
        result = small_system("ladon-pbft").run()
        assert [c.sn for c in result.confirmed] == list(range(len(result.confirmed)))

    def test_ladon_epochs_advance(self):
        result = small_system("ladon-pbft", duration=12.0, epoch_length=16).run()
        assert len(result.epoch_advancements) >= 1
        # Ranks must keep increasing across the epoch boundary.
        ranks = [c.block.rank for c in result.confirmed]
        assert max(ranks) > 16

    def test_ladon_causal_strength_near_one(self):
        result = small_system("ladon-pbft", duration=8.0).run()
        assert result.metrics.causal_strength > 0.9

    def test_replicas_agree_on_confirmed_prefix(self):
        system = small_system("ladon-pbft")
        system.run()
        # Non-observer replicas keep compact fingerprints only (bounded
        # memory), which carry exactly the identity the prefix check needs.
        logs = [
            [(inst, round) for _sn, inst, round, _rank, _digest
             in replica.orderer.confirmed_fingerprints()]
            for replica in system.replicas.values()
        ]
        shortest = min(len(log) for log in logs)
        assert shortest > 0
        reference = logs[0][:shortest]
        for log in logs[1:]:
            assert log[:shortest] == reference

    def test_ladon_opt_uses_less_bandwidth_than_plain(self):
        plain = small_system("ladon-pbft").run()
        opt = small_system("ladon-opt").run()
        assert opt.network_stats.bytes_sent < plain.network_stats.bytes_sent


class TestStragglerImpact:
    def test_iss_throughput_collapses_with_straggler_but_ladon_does_not(self):
        duration = 20.0
        faults = FaultConfig(stragglers=(StragglerSpec(replica=2, slowdown=10.0),))
        ladon = small_system("ladon-pbft", duration=duration, faults=faults).run()
        iss = small_system("iss-pbft", duration=duration, faults=faults).run()
        assert ladon.metrics.throughput_tps > 2.5 * iss.metrics.throughput_tps

    def test_iss_latency_much_higher_with_straggler(self):
        duration = 20.0
        faults = FaultConfig(stragglers=(StragglerSpec(replica=2, slowdown=10.0),))
        ladon = small_system("ladon-pbft", duration=duration, faults=faults).run()
        iss = small_system("iss-pbft", duration=duration, faults=faults).run()
        assert iss.metrics.average_latency_s > ladon.metrics.average_latency_s

    def test_straggler_blocks_are_empty(self):
        faults = FaultConfig(stragglers=(StragglerSpec(replica=2, slowdown=5.0),))
        result = small_system("ladon-pbft", duration=10.0, faults=faults).run()
        straggler_blocks = [c.block for c in result.confirmed if c.block.instance == 2]
        assert all(block.tx_count == 0 for block in straggler_blocks)

    def test_causality_violated_by_predetermined_ordering_under_straggler(self):
        duration = 20.0
        faults = FaultConfig(stragglers=(StragglerSpec(replica=2, slowdown=10.0),))
        iss = small_system("iss-pbft", duration=duration, faults=faults).run()
        ladon = small_system("ladon-pbft", duration=duration, faults=faults).run()
        assert iss.metrics.causal_strength < 0.9
        assert ladon.metrics.causal_strength > iss.metrics.causal_strength

    def test_byzantine_straggler_bounded_impact(self):
        duration = 15.0
        honest_faults = FaultConfig(stragglers=(StragglerSpec(replica=2, slowdown=5.0),))
        byz_faults = FaultConfig(
            adversary=AdversarySpec((RankManipulation(replicas=(2,), slowdown=5.0),))
        )
        honest = small_system("ladon-pbft", duration=duration, faults=honest_faults).run()
        byz = small_system("ladon-pbft", duration=duration, faults=byz_faults).run()
        # The manipulation costs some throughput but does not collapse it.
        assert byz.metrics.throughput_tps > 0.3 * honest.metrics.throughput_tps


class TestDQBFT:
    def test_sequencer_orders_all_confirmed_blocks(self):
        result = small_system("dqbft").run()
        assert [c.sn for c in result.confirmed] == list(range(len(result.confirmed)))

    def test_ordering_instance_blocks_not_in_global_log(self):
        system = small_system("dqbft")
        result = system.run()
        ordering_id = system.replicas[0].ordering_instance_id
        assert all(c.block.instance != ordering_id for c in result.confirmed)

    def test_dqbft_latency_above_iss(self):
        dqbft = small_system("dqbft", duration=10.0).run()
        iss = small_system("iss-pbft", duration=10.0).run()
        assert dqbft.metrics.average_latency_s > iss.metrics.average_latency_s


class TestCrashRecovery:
    def test_view_change_recovers_crashed_leader_instance(self):
        n = 4
        crash_at = 3.0
        system = small_system(
            "ladon-pbft",
            n=n,
            duration=25.0,
            faults=FaultConfig(crashes=(CrashSpec(replica=3, at=crash_at),)),
            propose_timeout=5.0,
            view_change_timeout=5.0,
        )
        result = system.run()
        # Some replica installed a new view for the crashed leader's instance.
        instances_changed = {instance for _, instance, _ in result.view_change_times}
        assert 3 in instances_changed
        # And the crashed instance produced blocks again after the view change.
        post_recovery = [
            c for c in result.confirmed
            if c.block.instance == 3 and c.block.proposed_at > crash_at + 5.0
        ]
        assert post_recovery, "instance led by the crashed replica never recovered"

    def test_crash_log_recorded(self):
        system = small_system(
            "ladon-pbft",
            duration=8.0,
            faults=FaultConfig(crashes=(CrashSpec(replica=3, at=2.0),)),
        )
        result = system.run()
        assert result.crash_log == [(2.0, 3, "crash")]


class TestObserverSelection:
    def test_observer_skips_stragglers_and_crashed(self):
        faults = FaultConfig(
            stragglers=(StragglerSpec(replica=0, slowdown=5.0),),
            crashes=(CrashSpec(replica=1, at=1.0),),
        )
        system = small_system("ladon-pbft", faults=faults)
        assert system.observer_id() == 2


class TestResourceAccounting:
    def test_bandwidth_and_cpu_positive(self):
        result = small_system("ladon-pbft").run()
        assert result.metrics.bandwidth_mbps > 0
        assert result.metrics.cpu_percent > 0

    def test_ladon_bandwidth_at_least_iss(self):
        # Ladon adds rank reports/certificates to the wire; with the same
        # workload it should not use less bandwidth than ISS.
        ladon = small_system("ladon-pbft").run()
        iss = small_system("iss-pbft").run()
        assert ladon.network_stats.bytes_sent >= 0.95 * iss.network_stats.bytes_sent


def result_digest(result):
    """sha256 over every field of a SystemResult, in its own iteration order."""
    digest = hashlib.sha256()

    def feed(label, value):
        digest.update(f"{label}={value!r}\n".encode())

    feed("metrics", list(result.metrics.as_dict().items()))
    feed("confirmed", [dataclasses.astuple(c) for c in result.confirmed])
    feed("throughput_series", result.throughput_series)
    feed("view_change_times", result.view_change_times)
    feed("epoch_advancements", result.epoch_advancements)
    feed("crash_log", result.crash_log)
    feed("dynamics_log", result.dynamics_log)
    feed("audit", dataclasses.astuple(result.audit))
    feed(
        "resources",
        [
            (replica, dataclasses.astuple(usage))
            for replica, usage in result.resources.per_replica().items()
        ],
    )
    feed("network_stats", dataclasses.astuple(result.network_stats))
    return digest.hexdigest()


#: cell -> (system builder, result_digest computed at the parent of PR 23, where
#: collect_result/audit_system still read live replicas)
PINNED_RESULTS = {
    "honest-ladon-pbft-n8": (
        partial(small_system, "ladon-pbft", n=8, epoch_length=16),
        "7d2de0cf1765a12ca23336f197aa7bfe3865a097bfb6da7f485908c5d9c1fd78",
    ),
    "iss-pbft-n8-straggler-crash": (
        partial(
            small_system,
            "iss-pbft",
            n=8,
            epoch_length=16,
            faults=FaultConfig(
                stragglers=(StragglerSpec(replica=2, slowdown=5.0),),
                crashes=(CrashSpec(replica=5, at=1.5, recover_at=5.0),),
            ),
            propose_timeout=1.0,
            view_change_timeout=1.0,
        ),
        "4149e5742c244536aa4aac87acdd0b6e26e708cec0bb6914e527252a70854805",
    ),
    "dqbft-n4": (
        partial(small_system, "dqbft", epoch_length=16),
        "56bb817c9ff3672af1ed678023ff9e55cb99be0ba402bc45b07afb2c02632be6",
    ),
    "ladon-pbft-n4-equivocation": (
        partial(
            small_system,
            "ladon-pbft",
            epoch_length=16,
            faults=FaultConfig(adversary=get_adversary("equivocation")),
        ),
        "40b7ebe30e9aecd6a9eb228ae8ba0c01cfa77a75b1434c8e162c0cd0ac79ef37",
    ),
    # The two HotStuff cells were computed on the tree that still carried
    # HotStuff's view change and QC parking, before any of it was deleted.
    "ladon-hotstuff-n8-straggler": (
        partial(small_system, "ladon-hotstuff", n=8, duration=40.0, stragglers=1),
        "81ed1575dc7df9208b94523c778ec9b0ddf5dca2fb48ca8c6d4502da2870547d",
    ),
    "iss-hotstuff-n8-leader-down": (
        partial(leader_down_system, "iss-hotstuff"),
        "b8ed5bfa5d6a5cd6084cca4fc126f028abed8d824dea31e9289645d4b525230b",
    ),
}


@pytest.mark.parametrize("protocol", available_protocols())
def test_confirm_trace_events_witness_the_confirmed_log(protocol):
    # Every confirmation site ends in the one tail that records the trace
    # event (DQBFT's two used to skip it), so a trace digest covers the output.
    system = small_system(protocol, duration=8.0, trace=True)
    result = system.run()
    observer = system.observer_id()
    events = [e for e in system.trace.by_category("confirm") if e.node == observer]
    assert result.confirmed
    assert [(e.details["instance"], e.details["round"]) for e in events] == [
        (c.block.instance, c.block.round) for c in result.confirmed
    ]


class TestResultPath:
    @pytest.mark.parametrize("cell", sorted(PINNED_RESULTS))
    def test_full_result_digest_is_pinned(self, cell):
        build, expected = PINNED_RESULTS[cell]
        assert result_digest(build().run()) == expected

    def test_audit_system_after_collect_equals_the_result_audit(self):
        # perfbench/child.py times exactly this second audit.
        build, _ = PINNED_RESULTS["ladon-pbft-n4-equivocation"]
        system = build()
        result = system.run()
        assert result.audit.stalled_instances  # a non-trivial report
        assert audit_system(system) == result.audit


@dataclasses.dataclass(frozen=True)
class StrayMessage:
    """A payload no instance class routes, addressed to a hosted instance."""

    sender: int
    instance: int
    size_bytes: int = 100


def definers(cls, name):
    """Names of the classes in ``cls``'s MRO that define ``name`` themselves."""
    return [owner.__name__ for owner in cls.__mro__ if name in vars(owner)]


class TestOneDispatchPath:
    """A protocol message reaches a handler only through ``_receive``'s route
    row or ``ConsensusInstance.on_message``, and the two agree."""

    @staticmethod
    def record_handlers(monkeypatch, protocol):
        """Wrap ``protocol``'s handlers to log their calls into the returned
        list; systems built afterwards hold the wrappers in their route rows."""
        instance_cls = replica_class(protocol).keywords["instance_cls"]
        calls = []
        for name in sorted(set(instance_cls.HANDLERS.values())):
            handler = getattr(instance_cls, name)

            def recorded(self, sender, message, _name=name, _handler=handler):
                calls.append((self.instance_id, _name, sender, message))
                _handler(self, sender, message)

            monkeypatch.setattr(instance_cls, name, recorded)
        return calls

    @staticmethod
    def replica(protocol):
        """Replica 1 of a built, unstarted n=4 system."""
        return small_system(protocol).replicas[1]

    @staticmethod
    def verifies(replica):
        return replica.resources.usage(replica.node_id).crypto_ops.get("verify", 0)

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_receive_and_dispatch_reach_the_same_handler(self, monkeypatch, protocol):
        instance_cls = replica_class(protocol).keywords["instance_cls"]
        calls = self.record_handlers(monkeypatch, protocol)
        for message_cls, name in instance_cls.HANDLERS.items():
            fields = {"tx_count": 64} if "tx_count" in message_cls.__dataclass_fields__ else {}
            message = message_cls(sender=0, instance=0, view=0, round=1, **fields)
            seen = []
            for path in ("_receive", "_dispatch"):
                replica = self.replica(protocol)
                calls.clear()
                getattr(replica, path)(0, message)
                seen.append((list(calls), self.verifies(replica)))
            assert seen[0] == seen[1], (protocol, message_cls.__name__)
            assert seen[0][0][0] == (0, name, 0, message)
            if message_cls in instance_cls.SELF_ACCOUNTING:
                # Mir's request re-verification (64 txs -> 1) plus the entry
                # verify, both recorded by the handler, not the dispatch site.
                assert seen[0][1] >= 2

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_receive_drops_unrouted_and_unhosted_messages(self, monkeypatch, protocol):
        calls = self.record_handlers(monkeypatch, protocol)
        replica = self.replica(protocol)
        routed = next(iter(replica.instance_cls.HANDLERS))
        for message in (
            StrayMessage(sender=0, instance=0),
            routed(sender=0, instance=99, view=0, round=1),
            routed(sender=0, instance=-1, view=0, round=1),
        ):
            replica._receive(0, message)
        assert calls == []
        assert self.verifies(replica) == 0

    @pytest.mark.parametrize("protocol", available_protocols())
    def test_checkpoint_reaches_on_checkpoint(self, monkeypatch, protocol):
        calls = self.record_handlers(monkeypatch, protocol)
        replica = self.replica(protocol)
        checkpoints = []
        monkeypatch.setattr(
            replica, "_on_checkpoint", lambda sender, message: checkpoints.append((sender, message))
        )
        # instance=0 names a hosted instance; the checkpoint must not reach it
        checkpoint = CheckpointMessage(sender=2, instance=0, view=0, round=0, epoch=0)
        replica._receive(2, checkpoint)
        replica._dispatch(2, checkpoint)
        assert checkpoints == [(2, checkpoint), (2, checkpoint)]
        assert calls == []

    def test_the_other_dispatch_paths_are_gone(self):
        assert importlib.util.find_spec("repro.protocols.rcc") is None
        for protocol in available_protocols():
            replica_cls = replica_class(protocol).func
            assert definers(replica_cls, "_receive") == ["MultiBFTReplica", "Node"]
            assert definers(replica_cls, "_dispatch") == ["MultiBFTReplica"]
            assert definers(replica_cls, "on_message") == ["Node"]
            for name in ("_dispatch_slow", "handle_extra_message", "feed_orderer"):
                assert not definers(replica_cls, name), (protocol, name)
            instance_cls = replica_class(protocol).keywords["instance_cls"]
            assert definers(instance_cls, "on_message") == ["ConsensusInstance"]
            assert not definers(instance_cls, "stop")
            replica = small_system(protocol).replicas[0]
            assert not [i for i in replica.instances.values() if hasattr(i, "stopped")]


class TestPerReplicaBindings:
    """What the m instance contexts of one replica share (paid n² times)."""

    @pytest.mark.parametrize("protocol", ["ladon-hotstuff", "ladon-pbft"])
    def test_contexts_share_one_object_per_callback(self, protocol):
        replica = small_system(protocol, n=7).replicas[2]
        contexts = [instance.context for instance in replica.instances.values()]
        assert len(contexts) == 7
        for name in ("observe_rank", "quorum_certificate", "send", "deliver"):
            assert len({id(getattr(context, name)) for context in contexts}) == 1, name
        assert contexts[0].observe_rank == replica.rank_state.observe

    def test_one_rank_certificate_per_replica_while_the_rank_stands(self):
        replica = small_system("ladon-hotstuff", n=7).replicas[2]
        first, second = (instance.context for instance in list(replica.instances.values())[:2])
        certificate = first.quorum_certificate(5)
        assert second.quorum_certificate(5) is certificate
        assert (certificate.rank, certificate.signer_count) == (0, 5)
        second.observe_rank(4, None, 5)
        moved = first.quorum_certificate(5)
        assert moved is not certificate and (moved.rank, moved.signer_count) == (4, 5)
        assert replica.rank_state.certificate == moved
