"""Tests for latency models, the network transport and nodes."""

import hashlib
import inspect
import math
import random

import pytest

from repro.fuzz.perturb import PerturbationSpec, SchedulePerturbation
from repro.runtime.des import DESRuntime
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

from sized import Sized


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
    def test_profile_draws_iff_jitter(self, jitter):
        # Every model returns a profile; the transport's fan-out draws once
        # per non-self receiver iff jitter > 0, exactly as delay() does.
        for model in (
            UniformLatency(base=0.01, jitter=jitter),
            wan_latency(8, jitter=jitter),
        ):
            row, profile_jitter = model.multicast_profile(0, [0, 1, 2, 3])
            assert profile_jitter == model.jitter
            assert [row[r] for r in (1, 2, 3)] == [model.min_delay(0, r) for r in (1, 2, 3)]
            rng = random.Random(3)
            before = rng.getstate()
            model.delay(0, 1, rng)
            assert (rng.getstate() == before) == (model.jitter == 0)
            net = Network(Simulator(seed=3), latency=model)
            expected = random.Random()
            expected.setstate(net._rng.getstate())
            net.multicast(0, [0, 1, 2, 3], Sized("x"))
            net.send(2, 2, Sized("self"))
            for _ in range(3 if jitter else 0):
                expected.random()
            assert net._rng.getstate() == expected.getstate()
        rng = random.Random(3)
        before = rng.getstate()
        assert wan_latency(4).delay(2, 2, rng) == 0.0  # self pair: never a draw
        assert rng.getstate() == before

    def test_base_model_names_the_missing_profile(self):
        class _DelayOnly(LatencyModel):
            def delay(self, sender, receiver, rng):
                return 0.01

        with pytest.raises(NotImplementedError, match="_DelayOnly provides no fan-out profile"):
            Network(Simulator(), latency=_DelayOnly()).send(0, 1, Sized("x"))

    @pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
    def test_bad_default_delay_is_refused(self, bad):
        # A negative default once put a multicast's arrival before its send
        # time (simulated time ran backwards) while send() on the same link
        # raised; both models refuse it when built.
        with pytest.raises(ValueError, match="default_delay"):
            TopologyLatency(("a", "b"), {}, jitter=0.001, default_delay=bad)
        with pytest.raises(ValueError, match="default_delay"):
            TopologySpec(kind="custom", regions=("a", "b"), default_delay=bad)


class _Recorder(Node):
    def __init__(self, node_id, runtime):
        super().__init__(node_id, runtime)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((self.now(), sender, message))


@pytest.fixture
def sim_net():
    sim = Simulator(seed=1)
    net = Network(sim, latency=UniformLatency(base=0.01, jitter=0.0), config=NetworkConfig(processing_delay=0.0))
    return sim, net, DESRuntime(simulator=sim, network=net)


class TestNetwork:
    def test_send_delivers_with_latency(self, sim_net):
        sim, net, runtime = sim_net
        a = _Recorder(0, runtime)
        b = _Recorder(1, runtime)
        a.multicast((1,), Sized("hello"))
        sim.run()
        assert len(b.received) == 1
        time, sender, message = b.received[0]
        assert sender == 0 and message == Sized("hello")
        assert time == pytest.approx(0.01)

    def test_bandwidth_serialises_uplink(self, sim_net):
        sim, net, runtime = sim_net
        a = _Recorder(0, runtime)
        b = _Recorder(1, runtime)
        big = 12_500_000  # 0.1 s at 1 Gbps
        a.multicast((1,), Sized("m1", big))
        a.multicast((1,), Sized("m2", big))
        sim.run()
        t1 = b.received[0][0]
        t2 = b.received[1][0]
        assert t2 - t1 == pytest.approx(0.1, rel=0.05)

    def test_broadcast_reaches_everyone(self, sim_net):
        sim, net, runtime = sim_net
        nodes = [_Recorder(i, runtime) for i in range(4)]
        net.multicast(0, net.registered_nodes(), Sized("ping"))
        sim.run()
        for node in nodes:
            assert len(node.received) == 1

    def test_stats_count_messages_and_bytes(self, sim_net):
        sim, net, runtime = sim_net
        _Recorder(0, runtime)
        _Recorder(1, runtime)
        net.send(0, 1, Sized("x", 100))
        sim.run()
        assert net.stats.messages_sent == 1
        assert net.stats.messages_delivered == 1
        assert net.stats.bytes_per_node[0] == 100

    def test_duplicate_registration_rejected(self, sim_net):
        sim, net, runtime = sim_net
        _Recorder(0, runtime)
        with pytest.raises(ValueError):
            net.register(0, lambda s, m: None)

    def test_crashed_node_neither_sends_nor_receives(self, sim_net):
        sim, net, runtime = sim_net
        a = _Recorder(0, runtime)
        b = _Recorder(1, runtime)
        b.crash()
        a.multicast((1,), Sized("x"))
        b.multicast((0,), Sized("y"))
        sim.run()
        assert b.received == []
        assert a.received == []

    def test_crash_cancels_timers(self, sim_net):
        sim, net, runtime = sim_net
        a = _Recorder(0, runtime)
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []

    def test_node_timer_restart_replaces_previous(self, sim_net):
        sim, net, runtime = sim_net
        a = _Recorder(0, runtime)
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append("first"))
        a.set_timer("t", 2.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["second"]

    def test_cancel_timer(self, sim_net):
        sim, net, runtime = sim_net
        a = _Recorder(0, runtime)
        fired = []
        a.set_timer("t", 1.0, lambda: fired.append(1))
        a.cancel_timer("t")
        sim.run()
        assert fired == []
        assert not a.has_timer("t")

    def test_recovered_node_receives_again(self, sim_net):
        sim, net, runtime = sim_net
        a = _Recorder(0, runtime)
        b = _Recorder(1, runtime)
        b.crash()
        b.recover()
        a.multicast((1,), Sized("x"))
        sim.run()
        assert len(b.received) == 1

    def test_partition_drop_accounting(self, sim_net):
        sim, net, runtime = sim_net
        _Recorder(0, runtime)
        b = _Recorder(1, runtime)
        c = _Recorder(2, runtime)
        net.set_partition([(0, 2), (1,)])  # node 1 unreachable from node 0
        net.send(0, 1, Sized("lost", 10))
        net.send(0, 2, Sized("ok", 10))
        sim.run()
        # Every send is counted as sent (and in the byte totals) even when
        # the partition drops it; only deliveries reflect the partition.
        assert net.stats.messages_sent == 2
        assert net.stats.bytes_sent == 20
        assert net.stats.messages_dropped == 1
        assert net.stats.drops_by_cause == {"partition": 1}
        assert net.stats.messages_delivered == 1
        assert b.received == [] and len(c.received) == 1

    def test_multicast_serialises_on_single_uplink(self, sim_net):
        sim, net, runtime = sim_net
        _Recorder(0, runtime)
        receivers = [_Recorder(i, runtime) for i in range(1, 4)]
        big = 12_500_000  # 0.1 s at 1 Gbps
        net.multicast(0, [1, 2, 3], Sized("blob", big))
        sim.run()
        arrivals = sorted(node.received[0][0] for node in receivers)
        # Copies queue behind each other on the sender's uplink: each later
        # copy departs one full transmission time after the previous one.
        assert arrivals[1] - arrivals[0] == pytest.approx(0.1, rel=0.01)
        assert arrivals[2] - arrivals[1] == pytest.approx(0.1, rel=0.01)

    def test_per_node_bandwidth_override(self, sim_net):
        sim, net, runtime = sim_net
        _Recorder(0, runtime)
        _Recorder(1, runtime)
        b = _Recorder(2, runtime)
        net.config.node_bandwidth = {1: 12_500_000}  # 100 Mbps for node 1
        size = 1_250_000  # 0.01 s at 1 Gbps, 0.1 s at 100 Mbps
        net.send(0, 2, Sized("fast", size))
        net.send(1, 2, Sized("slow", size))
        sim.run()
        times = {message.payload: time for time, _, message in b.received}
        assert times["slow"] - times["fast"] == pytest.approx(0.09, rel=0.05)


class TestUnregisteredDrop:
    def test_a_message_to_an_id_without_a_handler_is_one_drop_at_arrival(self):
        sim = Simulator(seed=1)
        net = Network(
            sim,
            latency=UniformLatency(base=0.01, jitter=0.0),
            config=NetworkConfig(processing_delay=0.0),
        )
        received = []
        for node in (0, 3):
            net.register(node, lambda sender, message, node=node: received.append((node, message)))
        net.send(0, 1, Sized("to an id never registered"))
        net.send(0, 2, Sized("to another id never registered"))
        net.send(0, 3, Sized("to a registered id"))
        assert net.stats.messages_dropped == 0  # nothing is dropped when sent
        sim.run(until=math.nextafter(0.01, 0.0))
        assert net.stats.messages_dropped == 0 and received == []  # nor before it arrives
        sim.run(until=0.01)  # every copy arrives at 0.01
        assert received == [(3, Sized("to a registered id"))]
        assert net.stats.messages_sent == 3
        assert net.stats.messages_delivered == 1
        assert net.stats.messages_dropped == 2
        assert net.stats.drops_by_cause == {"unregistered": 2}
        sim.run()
        assert net.stats.messages_delivered == 1 and net.stats.messages_dropped == 2


class TestDuplicateDelivery:
    def test_duplicates_delivered_and_counted(self):
        sim = Simulator(seed=3)
        net = Network(
            sim,
            latency=UniformLatency(base=0.01, jitter=0.0),
            config=NetworkConfig(processing_delay=0.0, duplicate_probability=1.0),
        )
        runtime = DESRuntime(simulator=sim, network=net)
        _Recorder(0, runtime)
        b = _Recorder(1, runtime)
        net.send(0, 1, Sized("x"))
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
            runtime = DESRuntime(simulator=sim, network=net)
            _Recorder(0, runtime)
            b = _Recorder(1, runtime)
            for i in range(50):
                net.send(0, 1, Sized(i))
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
        runtime = DESRuntime(simulator=sim, network=net)
        _Recorder(0, runtime)
        b = _Recorder(1, runtime)
        net.send(0, 1, Sized("x"))
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
        runtime = DESRuntime(simulator=sim, network=net)
        nodes = [_Recorder(i, runtime) for i in range(4)]
        return sim, net, nodes

    def test_partition_blocks_cross_group_traffic(self):
        sim, net, nodes = self._net()
        net.set_partition([(0, 1), (2, 3)])
        net.send(0, 1, Sized("same-group"))
        net.send(0, 2, Sized("cross-group"))
        sim.run()
        assert len(nodes[1].received) == 1
        assert nodes[2].received == []
        assert net.stats.drops_by_cause == {"partition": 1}

    def test_heal_restores_full_connectivity(self):
        sim, net, nodes = self._net()
        net.set_partition([(0, 1), (2, 3)])
        net.send(0, 2, Sized("during"))
        sim.run()
        net.heal_partition()
        net.send(0, 2, Sized("after"))
        sim.run()
        assert [m for _, _, m in nodes[2].received] == [Sized("after")]
        assert not net.partitioned

    def test_node_outside_every_group_is_isolated(self):
        sim, net, nodes = self._net()
        net.set_partition([(0, 1, 2)])  # node 3 in no group
        net.send(0, 3, Sized("to-isolated"))
        net.send(3, 0, Sized("from-isolated"))
        sim.run()
        assert nodes[3].received == []
        assert nodes[0].received == []
        assert net.stats.drops_by_cause == {"partition": 2}

    def test_repartition_replaces_previous_split(self):
        sim, net, nodes = self._net()
        net.set_partition([(0, 1), (2, 3)])
        net.set_partition([(0, 2), (1, 3)])
        net.send(0, 2, Sized("now-same-group"))
        net.send(0, 1, Sized("now-cross-group"))
        sim.run()
        assert len(nodes[2].received) == 1
        assert nodes[1].received == []

    def test_overlapping_groups_rejected(self):
        _, net, _ = self._net()
        with pytest.raises(ValueError):
            net.set_partition([(0, 1), (1, 2)])


class TestDynamicControls:
    def test_latency_scale_degrades_links(self):
        sim = Simulator(seed=1)
        net = Network(
            sim,
            latency=UniformLatency(base=0.01, jitter=0.0),
            config=NetworkConfig(processing_delay=0.0),
        )
        runtime = DESRuntime(simulator=sim, network=net)
        _Recorder(0, runtime)
        b = _Recorder(1, runtime)
        net.set_latency_scale(4.0)
        net.send(0, 1, Sized("slow"))
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


SEND_PATH_N = 8

#: the latency models of the pinned traffic script: a jittered WAN, the same
#: WAN with no jitter (the transport draws nothing), and the n-free default
SEND_PATH_MODELS = {
    "wan": lambda: wan_latency(SEND_PATH_N),
    "wan-nojitter": lambda: wan_latency(SEND_PATH_N, jitter=0.0),
    "uniform": lambda: UniformLatency(jitter=0.0),
}

#: unarmed; every per-receiver dynamic armed at once; degraded links; and a
#: perturbation that moves nothing
SEND_PATH_MODES = ("unarmed", "armed", "scaled", "perturbed")


def send_path_digest(model, mode):
    """sha256 over one traffic script's delivery log (pop order, with
    times), the transport's :class:`NetworkStats` and its RNG state.

    The script covers unicasts (a self-send and a zero-byte one included),
    multicasts whose receiver list holds the sender, an empty receiver list,
    a sender with a bandwidth override, and two phases separated by idle
    uplinks.
    """
    armed = mode == "armed"
    sim = Simulator(seed=5)
    config = NetworkConfig(
        drop_probability=0.2 if armed else 0.0,
        duplicate_probability=0.3 if armed else 0.0,
        node_bandwidth={2: 12_500_000},
    )
    net = Network(sim, latency=SEND_PATH_MODELS[model](), config=config)
    log = []
    everyone = list(range(SEND_PATH_N))
    for node in everyone:
        net.register(
            node,
            lambda sender, message, node=node: log.append(
                (sim.now(), sender, node, message.payload)
            ),
        )
    if armed:
        net.set_partition([[0, 1, 2, 3, 4, 5, 6], [7]])
    elif mode == "scaled":
        net.set_latency_scale(1.7)
    elif mode == "perturbed":
        net.set_delivery_perturbation(SchedulePerturbation(PerturbationSpec(max_delay=0.0)))
    for phase in range(2):  # the second phase starts with idle uplinks
        net.multicast(0, everyone, Sized(("all", phase), 4096))
        net.multicast(1, [], Sized(("none", phase), 512))
        net.multicast(2, [3, 2, 6, 1], Sized(("some", phase), 256))
        net.send(3, 3, Sized(("self", phase), 64))
        for receiver in everyone:
            net.send(4, receiver, Sized(("one", phase, receiver), 1024))
        net.send(6, 7, Sized(("empty", phase)))
        sim.run(until=0.5 * (phase + 1))
    sim.run()
    assert log
    witness = (log, net.stats, net._rng.getstate())
    return hashlib.sha256(repr(witness).encode()).hexdigest()


#: computed at the parent of the change that made ``multicast`` the only
#: sending code (three sending paths, two delivery sinks); the ``armed``
#: rows since the script stopped installing a link filter, identical at
#: the parent and the change that deleted the filter
PINNED_SEND_PATH = {
    "uniform-unarmed": "63c9475e74fd493b56ad2b5c6e715527d773e206ed5688c5ad5dcc5cbd7a5338",
    "uniform-armed": "80bcf1e297448c270769ec63dc3ea34bc4eede3d65d836bd0516c22f1c1ad58e",
    "uniform-scaled": "1ffbe6fa4b46acbae88695018792a081cbce71e57a1303faae64a57d7648fd6d",
    "uniform-perturbed": "63c9475e74fd493b56ad2b5c6e715527d773e206ed5688c5ad5dcc5cbd7a5338",
    "wan-unarmed": "529a12a7dbad253c8ab94c8ccb3383c43b41f9b7af1b10767cd7611600c33405",
    "wan-armed": "1b53930e139c5a6cda71feb8a59c5f03d6c1962c915eeeabee755bd4d9ca84a6",
    "wan-scaled": "be3b8280a511d0f0f9e3ee37ac48a4fd48d8ac4cbf6d360354a5f130191a58c5",
    "wan-perturbed": "529a12a7dbad253c8ab94c8ccb3383c43b41f9b7af1b10767cd7611600c33405",
    "wan-nojitter-unarmed": "216ef599b317a18639571eacc1acea9f1d85d66e67d8d25896c5fb6cd4a015e0",
    "wan-nojitter-armed": "5ce739435c713f3d5d63bc02dcc62d86c53e658347df2138e5ed0a17d16d03a4",
    "wan-nojitter-scaled": "7a7e74ee4aeaa1ab73104ba1708889f2dab71fd91f60e11438a1b804835d7537",
    "wan-nojitter-perturbed": "216ef599b317a18639571eacc1acea9f1d85d66e67d8d25896c5fb6cd4a015e0",
}


class TestOneSendPath:
    @pytest.mark.parametrize("mode", SEND_PATH_MODES)
    @pytest.mark.parametrize("model", sorted(SEND_PATH_MODELS))
    def test_schedule_digest_is_pinned(self, model, mode):
        assert send_path_digest(model, mode) == PINNED_SEND_PATH[f"{model}-{mode}"]

    def test_every_delivery_leaves_through_one_sink(self):
        from repro.runtime.base import Runtime
        from repro.runtime.des import DESRuntime
        from repro.shard.partition import ShardPlan
        from repro.shard.transport import ShardNetwork

        simulator = Simulator()
        for owner in (simulator, Runtime, DESRuntime()):
            assert not hasattr(owner, "schedule_call")
        assert not hasattr(simulator, "schedule_call_unchecked")
        assert not hasattr(Network(simulator), "_schedule_call")
        plan = ShardPlan(shards=2, assignment=(0, 1), strategy="hash")
        shard = ShardNetwork(Simulator(), plan=plan, shard_id=0)
        # one router, installed as the base sink a perturbation would wrap
        assert shard._push_calls.__name__ == "route_calls"
        assert shard._base_push_calls is shard._push_calls

    @staticmethod
    def hotstuff_system():
        """A built, unstarted n=4 Ladon-HotStuff system on the DES runtime."""
        from repro.bench.config import ExperimentCell
        from repro.protocols.registry import build_system

        return build_system(ExperimentCell(
            protocol="ladon-hotstuff", n=4, batch_size=64, duration=3.0,
            environment="lan", seed=1,
        ))

    def test_crashed_senders_protocol_unicast_schedules_nothing(self):
        from repro.consensus.messages import HotStuffVote

        system = self.hotstuff_system()
        replica = system.replicas[1]
        usage = replica.resources.usage(replica.node_id)
        vote = HotStuffVote(sender=1, instance=0, view=0, round=1, digest="d")
        replica.send_protocol_message(0, vote)
        sent = (usage.bytes_sent, system.runtime.stats.bytes_sent, len(system.runtime.simulator.queue))
        assert sent[1:] == (vote.size_bytes, 1)
        replica.crash()
        replica.send_protocol_message(0, vote)
        # The replica charges the send before it checks for a crash (as
        # Node.send always did); the transport sees nothing.
        assert usage.bytes_sent == sent[0] + vote.size_bytes
        assert (system.runtime.stats.bytes_sent, len(system.runtime.simulator.queue)) == sent[1:]
        assert system.runtime.stats.messages_sent == 1

    def test_an_interceptor_sees_every_protocol_unicast(self, monkeypatch):
        from repro.consensus.messages import HotStuffVote

        system = self.hotstuff_system()
        runtime = system.runtime
        offered, entered = [], []

        class Tap:
            """Passes every copy but the votes for replica 0, which it drops."""

            def outbound(self, node, receiver, message):
                offered.append((receiver, message))
                return receiver == 0 and isinstance(message, HotStuffVote)

        system.replicas[1].interceptor = Tap()
        fan_out = runtime.multicast

        def recording(sender, receivers, message):
            if sender == 1:
                entered.append((tuple(receivers), message))
            fan_out(sender, receivers, message)

        monkeypatch.setattr(runtime, "multicast", recording)
        system.start()
        runtime.run(until=3.0)
        votes = [(receiver, m) for receiver, m in offered if isinstance(m, HotStuffVote)]
        assert {receiver for receiver, _ in votes} == {0, 2, 3}
        # Each vote is offered once, and only the passed ones enter the one
        # fan-out, as one-receiver fan-outs, in the order offered.
        assert [((receiver,), m) for receiver, m in votes if receiver != 0] == [
            (receivers, m) for receivers, m in entered if isinstance(m, HotStuffVote)
        ]
