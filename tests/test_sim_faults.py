"""Tests for fault configuration and injection."""

import pytest

from repro.runtime.des import DESRuntime
from repro.sim.faults import (
    CrashSpec,
    DegradationSpec,
    FaultConfig,
    FaultInjector,
    LossBurstSpec,
    PartitionSpec,
    StragglerSpec,
)
from repro.sim.network import Network, NetworkConfig
from repro.sim.latency import UniformLatency
from repro.sim.node import Node
from repro.sim.simulator import Simulator

from sized import Sized


class TestStragglerSpec:
    def test_rejects_speedup(self):
        with pytest.raises(ValueError):
            StragglerSpec(replica=0, slowdown=0.5)

    def test_defaults(self):
        spec = StragglerSpec(replica=3)
        assert spec.slowdown == 10.0


class TestFaultConfig:
    def test_with_stragglers_selects_requested_count(self):
        config = FaultConfig.with_stragglers(3, 16, seed=1)
        assert config.straggler_count() == 3
        assert len({s.replica for s in config.stragglers}) == 3

    def test_with_stragglers_deterministic(self):
        a = FaultConfig.with_stragglers(2, 16, seed=5)
        b = FaultConfig.with_stragglers(2, 16, seed=5)
        assert [s.replica for s in a.stragglers] == [s.replica for s in b.stragglers]

    def test_with_stragglers_zero(self):
        config = FaultConfig.with_stragglers(0, 8)
        assert config.straggler_count() == 0

    def test_with_stragglers_rejects_too_many(self):
        with pytest.raises(ValueError):
            FaultConfig.with_stragglers(9, 8)

    def test_straggler_queries(self):
        config = FaultConfig(stragglers=(StragglerSpec(replica=2, slowdown=5.0),))
        assert config.is_straggler(2)
        assert not config.is_byzantine(2)
        assert not config.is_straggler(3)
        assert config.slowdown_of(2) == 5.0
        assert config.slowdown_of(1) == 1.0

    def test_byzantine_flag_propagates(self):
        honest = FaultConfig.with_stragglers(2, 8, slowdown=4.0, seed=0)
        config = FaultConfig.with_stragglers(2, 8, slowdown=4.0, byzantine=True, seed=0)
        # the same replicas, declared as the catalog's rank manipulation
        assert config.straggler_map() == honest.straggler_map()
        assert all(config.is_byzantine(r) for r in config.straggler_map())
        assert config.adversarial_replicas() == frozenset(honest.straggler_map())
        assert not any(honest.is_byzantine(r) for r in range(8))
        assert not FaultConfig.with_stragglers(0, 8, byzantine=True).adversarial_replicas()

    def test_straggler_map_precomputed(self):
        specs = tuple(StragglerSpec(replica=r, slowdown=4.0) for r in range(50))
        config = FaultConfig(stragglers=specs)
        assert config.straggler_map() == {r: specs[r] for r in range(50)}
        # The queries go through the precomputed dict, not a tuple scan.
        assert config._straggler_by_replica[49] is specs[49]
        assert config.slowdown_of(49) == 4.0
        assert not config.is_straggler(50)

    def test_dataclasses_replace_rebuilds_map(self):
        from dataclasses import replace

        config = FaultConfig(stragglers=(StragglerSpec(replica=1),))
        updated = replace(config, stragglers=(StragglerSpec(replica=2),))
        assert updated.is_straggler(2) and not updated.is_straggler(1)


class _DummyNode(Node):
    def on_message(self, sender, message):
        pass


class TestFaultInjector:
    def _build(self, crashes):
        sim = Simulator(seed=0)
        runtime = DESRuntime(simulator=sim, network=Network(sim))
        nodes = {i: _DummyNode(i, runtime) for i in range(4)}
        injector = FaultInjector(runtime, nodes, FaultConfig(crashes=crashes))
        injector.arm()
        return sim, nodes, injector

    def test_crash_at_time(self):
        sim, nodes, injector = self._build((CrashSpec(replica=1, at=5.0),))
        sim.run()
        assert nodes[1].crashed
        assert injector.crash_log == [(5.0, 1, "crash")]

    def test_crash_and_recover(self):
        sim, nodes, injector = self._build((CrashSpec(replica=2, at=1.0, recover_at=3.0),))
        sim.run()
        assert not nodes[2].crashed
        assert [entry[2] for entry in injector.crash_log] == ["crash", "recover"]

    def test_recover_before_crash_rejected(self):
        with pytest.raises(ValueError):
            self._build((CrashSpec(replica=0, at=5.0, recover_at=4.0),))

    def test_unknown_replica_rejected(self):
        sim = Simulator()
        runtime = DESRuntime(simulator=sim, network=Network(sim))
        nodes = {0: _DummyNode(0, runtime)}
        injector = FaultInjector(runtime, nodes, FaultConfig(crashes=(CrashSpec(replica=7, at=1.0),)))
        with pytest.raises(KeyError):
            injector.arm()


class _Echo(Node):
    def __init__(self, node_id, runtime):
        super().__init__(node_id, runtime)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.now(), sender, message.payload))


class TestNetworkDynamicsInjection:
    def _build(self, config):
        sim = Simulator(seed=0)
        net = Network(
            sim,
            latency=UniformLatency(base=0.01, jitter=0.0),
            config=NetworkConfig(processing_delay=0.0),
        )
        runtime = DESRuntime(simulator=sim, network=net)
        nodes = {i: _Echo(i, runtime) for i in range(4)}
        injector = FaultInjector(runtime, nodes, config)
        injector.arm()
        return sim, net, nodes, injector

    def test_partition_split_and_heal_transitions(self):
        config = FaultConfig(
            partitions=(PartitionSpec(at=1.0, groups=((0, 1), (2, 3)), heal_at=3.0),)
        )
        sim, net, nodes, injector = self._build(config)
        # Before the split: cross-group traffic flows.
        net.send(0, 2, Sized("before"))
        sim.run(until=2.0)
        assert net.partitioned
        net.send(0, 2, Sized("during"))
        sim.run(until=4.0)
        assert not net.partitioned
        net.send(0, 2, Sized("after"))
        sim.run()
        assert [m for _, _, m in nodes[2].received] == ["before", "after"]
        assert [(t, kind) for t, kind, _ in injector.event_log] == [
            (1.0, "partition"), (3.0, "heal"),
        ]

    def test_permanent_partition_never_heals(self):
        config = FaultConfig(partitions=(PartitionSpec(at=1.0, groups=((0, 1), (2, 3))),))
        sim, net, _, _ = self._build(config)
        sim.run(until=100.0)
        assert net.partitioned

    def test_degradation_window_scales_and_restores(self):
        config = FaultConfig(degradations=(DegradationSpec(at=1.0, until=2.0, factor=5.0),))
        sim, net, nodes, _ = self._build(config)
        sim.run(until=1.5)
        net.send(0, 1, Sized("degraded"))
        sim.run(until=2.5)
        net.send(0, 1, Sized("nominal"))
        sim.run()
        received = {m: t for t, _, m in nodes[1].received}
        assert received["degraded"] - 1.5 == pytest.approx(0.05)
        assert received["nominal"] - 2.5 == pytest.approx(0.01)

    def test_loss_burst_restores_baseline(self):
        config = FaultConfig(loss_bursts=(LossBurstSpec(at=1.0, until=2.0, drop_probability=0.9),))
        sim, net, _, injector = self._build(config)
        sim.run()
        assert net.config.drop_probability == 0.0
        assert [kind for _, kind, _ in injector.event_log] == ["loss-burst", "loss-burst-end"]

    def test_crash_and_partition_share_one_timeline(self):
        config = FaultConfig(
            crashes=(CrashSpec(replica=3, at=0.5),),
            partitions=(PartitionSpec(at=1.0, groups=((0, 1), (2, 3)), heal_at=2.0),),
        )
        sim, _, nodes, injector = self._build(config)
        sim.run()
        assert nodes[3].crashed
        assert [kind for _, kind, _ in injector.event_log] == ["crash", "partition", "heal"]
        assert injector.crash_log == [(0.5, 3, "crash")]


class TestSpecValidation:
    def test_partition_heal_before_split_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec(at=5.0, groups=((0,),), heal_at=4.0)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            PartitionSpec(at=1.0, groups=())

    def test_degradation_window_must_be_positive(self):
        with pytest.raises(ValueError):
            DegradationSpec(at=2.0, until=2.0)

    def test_loss_burst_probability_bounds(self):
        with pytest.raises(ValueError):
            LossBurstSpec(at=1.0, until=2.0, drop_probability=1.0)

    def test_partition_groups_must_be_disjoint_at_spec_time(self):
        with pytest.raises(ValueError):
            PartitionSpec(at=1.0, groups=((0, 1), (1, 2)))

    def test_overlapping_degradation_windows_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(
                degradations=(
                    DegradationSpec(at=1.0, until=10.0, factor=4.0),
                    DegradationSpec(at=5.0, until=6.0, factor=8.0),
                )
            )

    def test_overlapping_loss_bursts_rejected(self):
        with pytest.raises(ValueError):
            FaultConfig(
                loss_bursts=(
                    LossBurstSpec(at=1.0, until=4.0),
                    LossBurstSpec(at=3.0, until=5.0),
                )
            )

    def test_back_to_back_windows_allowed(self):
        config = FaultConfig(
            degradations=(
                DegradationSpec(at=1.0, until=2.0),
                DegradationSpec(at=2.0, until=3.0),
            )
        )
        assert len(config.degradations) == 2
