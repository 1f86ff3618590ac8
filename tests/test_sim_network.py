"""Tests for latency models, the network transport and nodes."""

import hashlib
import inspect
import random

import pytest

from repro.scenario import TopologySpec
from repro.sim import latency as latency_module
from repro.sim.latency import (
    DEFAULT_WAN_REGIONS,
    LatencyModel,
    TopologyLatency,
    UniformLatency,
)
from repro.sim.network import Network, NetworkConfig
from repro.sim.node import Node
from repro.sim.simulator import Simulator


def wan_latency(n, jitter=None):
    return TopologySpec.wan(jitter=jitter).build_latency(n)


def lan_latency(n):
    return TopologySpec.lan().build_latency(n)


def latency_digest(model, n):
    """sha256 over every ordered pair's delay draw, bound and profile row."""
    rng = random.Random(7)
    delays = [model.delay(s, r, rng) for s in range(n) for r in range(n)]
    mins = [model.min_delay(s, r) for s in range(n) for r in range(n)]
    receivers = list(range(n))
    rows = []
    for s in range(n):
        row, jitter = model.multicast_profile(s, receivers)
        # the sender's own slot is never read by the transport
        rows.append(([row[r] for r in receivers if r != s], jitter))
    return hashlib.sha256(repr((delays, mins, rows)).encode()).hexdigest()


#: computed at the parent of PR 24 from ``WanLatency(8)``, ``WanLatency(13)``
#: (n not a multiple of the 4 regions) and ``LanLatency()``, the classes the
#: presets replaced
PINNED_LATENCY = {
    "wan-8": (wan_latency, 8, "85ac61648e1a35d005b2b0e58b716a095124da7f9e7b859355f4de78b0c9ba23"),
    "wan-13": (wan_latency, 13, "256657683695bff0d9b2acc3f6a66a791375e5c117c5b690d45d4d9c3ea6a771"),
    "lan-8": (lan_latency, 8, "4334b206feadb0cebe41432f7c932acfb070ff7213fae17066152cfb73d8fc95"),
}


class TestLatencyModels:
    def test_uniform_latency_self_delivery_is_free(self):
        model = UniformLatency(base=0.01)
        assert model.delay(1, 1, random.Random(0)) == 0.0

    def test_uniform_latency_base(self):
        model = UniformLatency(base=0.01, jitter=0.0)
        assert model.delay(0, 1, random.Random(0)) == pytest.approx(0.01)

    def test_uniform_rejects_negative(self):
        with pytest.raises(ValueError):
            UniformLatency(base=-1)

    def test_lan_latency_sub_millisecond(self):
        model = lan_latency(4)
        delay = model.delay(0, 1, random.Random(0))
        assert 0.0 < delay < 0.002

    def test_wan_latency_regions_assigned_round_robin(self):
        model = wan_latency(8)
        assert model.region_of(0) == DEFAULT_WAN_REGIONS[0]
        assert model.region_of(4) == DEFAULT_WAN_REGIONS[0]
        assert model.region_of(1) == DEFAULT_WAN_REGIONS[1]

    def test_wan_intercontinental_slower_than_intra_region(self):
        model = wan_latency(8, jitter=0.0)
        rng = random.Random(0)
        intra = model.delay(0, 4, rng)   # same region
        inter = model.delay(0, 2, rng)   # Paris <-> Sydney
        assert inter > intra * 10

    def test_wan_symmetric_base(self):
        model = wan_latency(8, jitter=0.0)
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == pytest.approx(model.delay(1, 0, rng))

    def test_wan_rejects_bad_n(self):
        with pytest.raises(ValueError):
            wan_latency(0)

    def test_wan_unknown_pair_raises_when_strict(self):
        # A link between two *hosted* regions must be registered: the model
        # refuses at construction and names the link ...
        spec = TopologySpec(
            kind="custom",
            regions=("atlantis", "eu-west-3", "unused"),
            links=(("atlantis", "unused", 0.05),),
            placement=("atlantis", "eu-west-3"),
        )
        with pytest.raises(KeyError, match="'atlantis' -> 'eu-west-3'"):
            spec.build_latency(2)
        # ... while a region no replica sits in may lack links.
        linked = TopologySpec(
            kind="custom",
            regions=("atlantis", "eu-west-3", "unused"),
            links=(("atlantis", "eu-west-3", 0.05),),
            placement=("atlantis", "eu-west-3"),
        )
        assert linked.build_latency(2).min_delay(0, 1) == 0.05

    def test_topology_latency_asymmetric_and_strict(self):
        model = TopologyLatency(
            assignment=("a", "b"),
            delays={("a", "b"): 0.02, ("b", "a"): 0.08},
            jitter=0.0,
        )
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == pytest.approx(0.02)
        assert model.delay(1, 0, rng) == pytest.approx(0.08)
        with pytest.raises(KeyError):
            TopologyLatency(assignment=("a", "b"), delays={}, jitter=0.0)

    @pytest.mark.parametrize("name", sorted(PINNED_LATENCY))
    def test_preset_models_reproduce_the_replaced_classes(self, name):
        build, n, expected = PINNED_LATENCY[name]
        assert latency_digest(build(n), n) == expected

    def test_every_model_implements_the_whole_interface(self):
        models = [
            cls
            for _, cls in inspect.getmembers(latency_module, inspect.isclass)
            if issubclass(cls, LatencyModel) and cls is not LatencyModel
        ]
        assert models == [TopologyLatency, UniformLatency]
        for cls in models:
            for method in ("delay", "min_delay", "region_of", "multicast_profile"):
                assert method in vars(cls), f"{cls.__name__} inherits {method}"

    @pytest.mark.parametrize("jitter", [0.0, 0.002])
    def test_multicast_profile_is_none_iff_the_model_draws_nothing(self, jitter):
        # The transport's fused fan-out draws once per receiver
        # unconditionally, so a no-draw model must never enter it.
        for model in (
            UniformLatency(base=0.01, jitter=jitter),
            wan_latency(8, jitter=jitter),
        ):
            profile = model.multicast_profile(0, [0, 1, 2, 3])
            assert (profile is None) == (model.jitter == 0)
            rng = random.Random(3)
            before = rng.getstate()
            model.delay(0, 1, rng)
            assert (rng.getstate() == before) == (model.jitter == 0)
        rng = random.Random(3)
        before = rng.getstate()
        assert wan_latency(4).delay(2, 2, rng) == 0.0  # self pair: never a draw
        assert rng.getstate() == before


class _Recorder(Node):
    def __init__(self, node_id, simulator, network):
        super().__init__(node_id, simulator, network)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.now(), sender, message))


@pytest.fixture
def sim_net():
    sim = Simulator(seed=1)
    net = Network(sim, latency=UniformLatency(base=0.01, jitter=0.0), config=NetworkConfig(processing_delay=0.0))
    return sim, net


class TestNetwork:
    def test_send_delivers_with_latency(self, sim_net):
        sim, net = sim_net
        a = _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        a.send(1, "hello", size_bytes=0)
        sim.run()
        assert len(b.received) == 1
        time, sender, message = b.received[0]
        assert sender == 0 and message == "hello"
        assert time == pytest.approx(0.01)

    def test_bandwidth_serialises_uplink(self, sim_net):
        sim, net = sim_net
        a = _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        big = 12_500_000  # 0.1 s at 1 Gbps
        a.send(1, "m1", size_bytes=big)
        a.send(1, "m2", size_bytes=big)
        sim.run()
        t1 = b.received[0][0]
        t2 = b.received[1][0]
        assert t2 - t1 == pytest.approx(0.1, rel=0.05)

    def test_broadcast_reaches_everyone(self, sim_net):
        sim, net = sim_net
        nodes = [_Recorder(i, sim, net) for i in range(4)]
        net.broadcast(0, "ping")
        sim.run()
        for node in nodes:
            assert len(node.received) == 1

    def test_stats_count_messages_and_bytes(self, sim_net):
        sim, net = sim_net
        _Recorder(0, sim, net)
        _Recorder(1, sim, net)
        net.send(0, 1, "x", size_bytes=100)
        sim.run()
        assert net.stats.messages_sent == 1
        assert net.stats.messages_delivered == 1
        assert net.stats.bytes_per_node[0] == 100

    def test_link_filter_drops(self, sim_net):
        sim, net = sim_net
        _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        net.set_link_filter(lambda s, r: False)
        net.send(0, 1, "x")
        sim.run()
        assert b.received == []
        assert net.stats.messages_dropped == 1

    def test_duplicate_registration_rejected(self, sim_net):
        sim, net = sim_net
        _Recorder(0, sim, net)
        with pytest.raises(ValueError):
            net.register(0, lambda s, m: None)

    def test_crashed_node_neither_sends_nor_receives(self, sim_net):
        sim, net = sim_net
        a = _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        b.crash()
        a.send(1, "x")
        b.send(0, "y")
        sim.run()
        assert b.received == []
        assert a.received == []

    def test_crash_cancels_timers(self, sim_net):
        sim, net = sim_net
        a = _Recorder(0, sim, net)
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []

    def test_node_timer_restart_replaces_previous(self, sim_net):
        sim, net = sim_net
        a = _Recorder(0, sim, net)
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append("first"))
        a.set_timer("t", 2.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["second"]

    def test_cancel_timer(self, sim_net):
        sim, net = sim_net
        a = _Recorder(0, sim, net)
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append(1))
        a.cancel_timer("t")
        sim.run()
        assert fired == []
        assert not a.has_timer("t")

    def test_recovered_node_receives_again(self, sim_net):
        sim, net = sim_net
        a = _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        b.crash()
        b.recover()
        a.send(1, "x")
        sim.run()
        assert len(b.received) == 1

    def test_link_filter_drop_accounting(self, sim_net):
        sim, net = sim_net
        _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        c = _Recorder(2, sim, net)
        net.set_link_filter(lambda s, r: r != 1)  # node 1 unreachable
        net.send(0, 1, "lost", size_bytes=10)
        net.send(0, 2, "ok", size_bytes=10)
        sim.run()
        # Every send is counted as sent (and in the byte totals) even when
        # the link filter drops it; only deliveries reflect the filter.
        assert net.stats.messages_sent == 2
        assert net.stats.bytes_sent == 20
        assert net.stats.messages_dropped == 1
        assert net.stats.drops_by_cause == {"link-filter": 1}
        assert net.stats.messages_delivered == 1
        assert b.received == [] and len(c.received) == 1

    def test_multicast_serialises_on_single_uplink(self, sim_net):
        sim, net = sim_net
        _Recorder(0, sim, net)
        receivers = [_Recorder(i, sim, net) for i in range(1, 4)]
        big = 12_500_000  # 0.1 s at 1 Gbps
        net.multicast(0, [1, 2, 3], "blob", size_bytes=big)
        sim.run()
        arrivals = sorted(node.received[0][0] for node in receivers)
        # Copies queue behind each other on the sender's uplink: each later
        # copy departs one full transmission time after the previous one.
        assert arrivals[1] - arrivals[0] == pytest.approx(0.1, rel=0.01)
        assert arrivals[2] - arrivals[1] == pytest.approx(0.1, rel=0.01)

    def test_per_node_bandwidth_override(self, sim_net):
        sim, net = sim_net
        _Recorder(0, sim, net)
        _Recorder(1, sim, net)
        b = _Recorder(2, sim, net)
        net.config.node_bandwidth = {1: 12_500_000}  # 100 Mbps for node 1
        size = 1_250_000  # 0.01 s at 1 Gbps, 0.1 s at 100 Mbps
        net.send(0, 2, "fast", size_bytes=size)
        net.send(1, 2, "slow", size_bytes=size)
        sim.run()
        times = {message: time for time, _, message in b.received}
        assert times["slow"] - times["fast"] == pytest.approx(0.09, rel=0.05)


class TestDuplicateDelivery:
    def test_duplicates_delivered_and_counted(self):
        sim = Simulator(seed=3)
        net = Network(
            sim,
            latency=UniformLatency(base=0.01, jitter=0.0),
            config=NetworkConfig(processing_delay=0.0, duplicate_probability=1.0),
        )
        _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        net.send(0, 1, "x")
        sim.run()
        assert len(b.received) == 2
        assert net.stats.messages_duplicated == 1
        assert net.stats.messages_sent == 1
        assert net.stats.messages_delivered == 2

    def test_duplicate_injection_deterministic(self):
        def run_once():
            sim = Simulator(seed=9)
            net = Network(
                sim,
                latency=UniformLatency(base=0.01, jitter=0.001),
                config=NetworkConfig(processing_delay=0.0, duplicate_probability=0.5),
            )
            _Recorder(0, sim, net)
            b = _Recorder(1, sim, net)
            for i in range(50):
                net.send(0, 1, i)
            sim.run()
            return [(round(t, 9), m) for t, _, m in b.received], net.stats.messages_duplicated

        first = run_once()
        second = run_once()
        assert first == second
        assert first[1] > 0  # some duplicates actually happened

    def test_zero_probability_never_draws(self):
        sim = Simulator(seed=3)
        net = Network(
            sim,
            latency=UniformLatency(base=0.01, jitter=0.0),
            config=NetworkConfig(processing_delay=0.0),
        )
        _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        net.send(0, 1, "x")
        sim.run()
        assert len(b.received) == 1
        assert net.stats.messages_duplicated == 0


class TestPartition:
    def _net(self):
        sim = Simulator(seed=1)
        net = Network(
            sim,
            latency=UniformLatency(base=0.01, jitter=0.0),
            config=NetworkConfig(processing_delay=0.0),
        )
        nodes = [_Recorder(i, sim, net) for i in range(4)]
        return sim, net, nodes

    def test_partition_blocks_cross_group_traffic(self):
        sim, net, nodes = self._net()
        net.set_partition([(0, 1), (2, 3)])
        net.send(0, 1, "same-group")
        net.send(0, 2, "cross-group")
        sim.run()
        assert len(nodes[1].received) == 1
        assert nodes[2].received == []
        assert net.stats.drops_by_cause == {"partition": 1}

    def test_heal_restores_full_connectivity(self):
        sim, net, nodes = self._net()
        net.set_partition([(0, 1), (2, 3)])
        net.send(0, 2, "during")
        sim.run()
        net.heal_partition()
        net.send(0, 2, "after")
        sim.run()
        assert [m for _, _, m in nodes[2].received] == ["after"]
        assert not net.partitioned

    def test_node_outside_every_group_is_isolated(self):
        sim, net, nodes = self._net()
        net.set_partition([(0, 1, 2)])  # node 3 in no group
        net.send(0, 3, "to-isolated")
        net.send(3, 0, "from-isolated")
        sim.run()
        assert nodes[3].received == []
        assert nodes[0].received == []
        assert net.stats.drops_by_cause == {"partition": 2}

    def test_repartition_replaces_previous_split(self):
        sim, net, nodes = self._net()
        net.set_partition([(0, 1), (2, 3)])
        net.set_partition([(0, 2), (1, 3)])
        net.send(0, 2, "now-same-group")
        net.send(0, 1, "now-cross-group")
        sim.run()
        assert len(nodes[2].received) == 1
        assert nodes[1].received == []

    def test_overlapping_groups_rejected(self):
        _, net, _ = self._net()
        with pytest.raises(ValueError):
            net.set_partition([(0, 1), (1, 2)])

    def test_partition_composes_with_link_filter(self):
        sim, net, nodes = self._net()
        net.set_link_filter(lambda s, r: r != 1)
        net.set_partition([(0, 1), (2, 3)])
        net.send(0, 1, "filtered")     # same group, but filter drops it
        net.send(2, 3, "delivered")
        sim.run()
        assert nodes[1].received == []
        assert len(nodes[3].received) == 1


class TestDynamicControls:
    def test_latency_scale_degrades_links(self):
        sim = Simulator(seed=1)
        net = Network(
            sim,
            latency=UniformLatency(base=0.01, jitter=0.0),
            config=NetworkConfig(processing_delay=0.0),
        )
        _Recorder(0, sim, net)
        b = _Recorder(1, sim, net)
        net.set_latency_scale(4.0)
        net.send(0, 1, "slow")
        sim.run()
        assert b.received[0][0] == pytest.approx(0.04)
        with pytest.raises(ValueError):
            net.set_latency_scale(0.0)

    def test_drop_probability_setter_validates(self):
        sim = Simulator(seed=1)
        net = Network(sim)
        net.set_drop_probability(0.5)
        assert net.config.drop_probability == 0.5
        with pytest.raises(ValueError):
            net.set_drop_probability(1.5)
