"""Tests for the sans-I/O runtime seam and its execution backends.

Covers:

* the architectural lint: no protocol/consensus module may import the
  simulator or the network directly — everything goes through
  :mod:`repro.runtime`;
* the :class:`~repro.runtime.des.DESRuntime` contract (scheduling,
  cancellation, transport, dynamics controls);
* multicast-path alignment: an honest pass-through interceptor must be
  network-level indistinguishable from no interceptor;
* the event-queue encapsulation lint: only ``sim/events.py`` and the
  ``Simulator.run`` loop know the queue's tiers, and the shard worker's
  idle-skip report goes through ``peek_time()``;
* crash–recover timer semantics (the ``on_recover`` hook).
"""

import ast
import inspect
import os
import re
import threading
from multiprocessing import Pipe
from pathlib import Path

import pytest

from repro.runtime import (
    DESRuntime,
    NetworkConfig,
    Runtime,
    RUNTIME_KINDS,
    build_runtime,
)
from repro.sim.latency import UniformLatency
from repro.sim.node import Node

from sized import Sized


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: packages that must stay sans-I/O (the runtime seam is their only backend).
#: The ad hoc regex lint that used to live here is now the SEAM rule family
#: in ``repro.staticcheck`` (which also bans asyncio/time/threading and
#: covers core+adversary); this test delegates so coverage never regresses.
SANS_IO_PACKAGES = ("protocols", "consensus", "core", "adversary")


# ----------------------------------------------------------------- the lint
@pytest.mark.parametrize("package", SANS_IO_PACKAGES)
def test_no_direct_simulator_or_network_imports(package):
    from repro.staticcheck import check_paths, select_rules

    report = check_paths(
        [os.path.join(SRC, "repro", package)], rules=select_rules(["SEAM"])
    )
    details = "\n".join(v.format_text() for v in report.violations)
    assert report.exit_code == 0, (
        f"sans-I/O violation: protocol code must talk to repro.runtime, not "
        f"the DES engine or the OS directly:\n{details}"
    )


def test_nothing_under_src_imports_asyncio():
    """Every backend runs the DES event loop; no module needs an asyncio
    event loop (nor its ~4 MiB with ssl)."""
    importers = []
    for path in sorted(Path(SRC, "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            )
            if any(name.split(".")[0] == "asyncio" for name in names):
                importers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not importers


def test_only_the_queue_and_the_run_loop_touch_the_queue_tiers():
    """The bucketing rule lives in sim/events.py + Simulator.run, nowhere else.

    Grep-style, like the SEAM lint's ancestor: no other module may reach into
    an ``EventQueue``'s private fields (the old ``queue._heap`` fast paths);
    fan-out goes through ``push_calls`` and head peeks through ``peek_time``.
    """
    reach_in = re.compile(r"queue\._[a-z]|\._(near|side|far|far_buckets)\b")
    owners = {Path("sim/events.py"), Path("sim/simulator.py")}
    root = Path(SRC, "repro")
    offenders = [
        f"{path.relative_to(root)}:{number}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root) not in owners
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if reach_in.search(line)
    ]
    assert not offenders, "EventQueue internals used outside their owners:\n" + "\n".join(offenders)


def test_shard_worker_never_advertises_a_cancelled_timer(monkeypatch):
    """The idle-skip report is the next time something *fires* on the shard."""
    from repro.bench.config import ExperimentCell
    from repro.shard import worker
    from repro.shard.ipc import decode_frame, encode_frame
    from repro.shard.partition import plan_shards

    cell = ExperimentCell(
        protocol="ladon-pbft", n=4, duration=1.0, batch_size=16, seed=1,
        runtime="sharded", shards=2,
    )
    resolved = cell.resolve()
    plan = plan_shards(cell.n, 2, resolved.scenario.build_latency(cell.n))
    built = []
    build = worker._build_system

    def capture(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(worker, "_build_system", capture)
    hub, conn = Pipe()
    thread = threading.Thread(
        target=worker.worker_entry, args=(conn, cell, resolved, plan, 0)
    )
    thread.start()
    try:
        hub.send_bytes(encode_frame(("run", 0.0, False, [])))
        first_live = decode_frame(hub.recv_bytes())[3]
        assert 0.0 < first_live < float("inf")
        # A cancelled timer ahead of everything else: nothing fires at it.
        simulator = built[0][1].simulator
        simulator.schedule_at(first_live / 2, lambda: None).cancel()
        hub.send_bytes(encode_frame(("run", first_live / 4, False, [])))
        assert decode_frame(hub.recv_bytes())[3] == first_live
    finally:
        hub.send_bytes(encode_frame(("stop",)))
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_no_send_path_takes_a_size():
    """A message's size travels on the message (``message.size_bytes``): no
    function between a consensus instance and the transport takes one."""
    from repro.adversary.interceptor import AdversaryInterceptor
    from repro.consensus.base import CollectingContext, InstanceContext
    from repro.protocols.base import MultiBFTReplica
    from repro.sim.network import Network

    send_path = [
        InstanceContext.send, InstanceContext.multicast,
        CollectingContext.send, CollectingContext.multicast,
        MultiBFTReplica.send_protocol_message, MultiBFTReplica.multicast_protocol_message,
        Node.multicast,
        Runtime.send, Runtime.multicast,
        Network.send, Network.multicast,
        AdversaryInterceptor.outbound, AdversaryInterceptor._send_later,
    ]
    sized = [
        f"{function.__qualname__}({name})"
        for function in send_path
        for name in inspect.signature(function).parameters
        if "size" in name
    ]
    assert sized == []


# ------------------------------------------------------------ the interface
class TestBuildRuntime:
    def test_kinds(self):
        assert RUNTIME_KINDS == ("des", "sharded")

    def test_builds_the_single_process_kind(self):
        assert isinstance(build_runtime("des"), DESRuntime)
        assert isinstance(build_runtime("des"), Runtime)

    def test_sharded_kind_is_built_with_the_system(self):
        with pytest.raises(ValueError, match="build_system"):
            build_runtime("sharded")

    def test_the_bare_seam_implements_nothing(self):
        """Every seam method is the backend's to supply; a backend that
        forgets one fails at the first call instead of inheriting a default."""
        seam = Runtime()
        calls = [
            seam.now, lambda: seam.schedule_at(1.0, print),
            lambda: seam.schedule_after(1.0, print), lambda: seam.cancel(None),
            lambda: seam.register(0, print), lambda: seam.send(0, 1, None),
            lambda: seam.multicast(0, (1,), None), seam.registered_nodes,
            lambda: seam.set_partition([(0,), (1,)]), seam.heal_partition,
            lambda: seam.partitioned, lambda: seam.set_latency_scale(2.0),
            lambda: seam.set_drop_probability(0.5), lambda: seam.drop_probability,
            seam.run,
        ]
        for call in calls:
            with pytest.raises(NotImplementedError):
                call()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            build_runtime("sockets")

    def test_cell_validates_runtime(self):
        from repro.bench.config import ExperimentCell

        with pytest.raises(ValueError):
            ExperimentCell(protocol="ladon-pbft", n=16, runtime="threads")
        with pytest.raises(ValueError, match="runtime"):
            ExperimentCell(protocol="ladon-pbft", n=16, runtime="realtime")

    def test_cell_key_includes_runtime(self):
        from repro.bench.config import ExperimentCell
        from repro.bench.sweep import cell_key

        des = ExperimentCell(protocol="ladon-pbft", n=4)
        sharded = ExperimentCell(protocol="ladon-pbft", n=4, runtime="sharded", shards=2)
        assert cell_key(des) != cell_key(sharded)


class _Echo(Node):
    def __init__(self, node_id, runtime):
        super().__init__(node_id, runtime)
        self.received = []

    def on_message(self, sender, message):
        self.received.append((round(self.now(), 6), sender, message.payload))


class TestDESRuntime:
    def _runtime(self):
        return build_runtime(
            "des",
            seed=1,
            latency=UniformLatency(base=0.01, jitter=0.0),
            network_config=NetworkConfig(processing_delay=0.0),
        )

    def test_schedule_and_cancel(self):
        runtime = self._runtime()
        fired = []
        runtime.schedule_at(1.0, lambda: fired.append("at"))
        runtime.schedule_after(0.5, lambda: fired.append("after"))
        handle = runtime.schedule_at(0.75, lambda: fired.append("cancelled"))
        runtime.cancel(handle)
        runtime.schedule_after(0.0, lambda: fired.append("now"))
        end = runtime.run(until=2.0)
        assert fired == ["now", "after", "at"]
        assert end == 2.0
        assert runtime.now() == 2.0

    def test_transport_roundtrip(self):
        runtime = self._runtime()
        nodes = [_Echo(i, runtime) for i in range(3)]
        assert runtime.registered_nodes() == [0, 1, 2]
        nodes[0].multicast((1,), Sized("hi"))
        nodes[0].multicast([1, 2], Sized("all"))
        runtime.run(until=1.0)
        assert [m for _, _, m in nodes[1].received] == ["hi", "all"]
        assert [m for _, _, m in nodes[2].received] == ["all"]
        assert runtime.stats.messages_sent == 3
        assert runtime.stats.messages_delivered == 3

    def test_dynamics_controls(self):
        runtime = self._runtime()
        nodes = [_Echo(i, runtime) for i in range(4)]
        runtime.set_partition([(0, 1), (2, 3)])
        assert runtime.partitioned
        nodes[0].multicast((2,), Sized("blocked"))
        runtime.heal_partition()
        nodes[0].multicast((2,), Sized("flows"))
        runtime.set_drop_probability(0.5)
        assert runtime.drop_probability == 0.5
        runtime.set_drop_probability(0.0)
        runtime.run(until=1.0)
        assert [m for _, _, m in nodes[2].received] == ["flows"]
        assert runtime.stats.drops_by_cause == {"partition": 1}

    def test_node_runs_on_a_runtime_over_an_existing_pair(self):
        from repro.sim.network import Network
        from repro.sim.simulator import Simulator

        simulator = Simulator(seed=0)
        network = Network(simulator, latency=UniformLatency(base=0.01, jitter=0.0))
        runtime = DESRuntime(simulator=simulator, network=network)
        a = _Echo(0, runtime)
        b = _Echo(1, runtime)
        a.multicast((1,), Sized("x"))
        simulator.run()
        assert a.runtime is runtime and runtime.network is network
        assert [(sender, message) for _at, sender, message in b.received] == [(0, "x")]

    def test_schedule_order_and_handle_cancel(self):
        runtime = self._runtime()
        fired = []
        runtime.schedule_at(0.2, lambda: fired.append("b"))
        runtime.schedule_at(0.1, lambda: fired.append("a"))
        handle = runtime.schedule_at(0.15, lambda: fired.append("x"))
        handle.cancel()
        runtime.schedule_at(0.2, lambda: fired.append("c"))  # FIFO at same time
        end = runtime.run(until=0.5)
        assert fired == ["a", "b", "c"]
        assert end == 0.5
        assert runtime.now() == 0.5

    def test_open_ended_run_drains_and_stops(self):
        runtime = self._runtime()
        fired = []
        runtime.schedule_at(0.05, lambda: fired.append(1))
        runtime.run()
        assert fired == [1]
        assert runtime.now() == 0.05

    def test_timers_rearm_during_run(self):
        runtime = self._runtime()
        fired = []

        def tick():
            fired.append(round(runtime.now(), 2))
            if len(fired) < 3:
                runtime.schedule_after(0.1, tick)

        runtime.schedule_after(0.1, tick)
        runtime.run(until=1.0)
        assert fired == [0.1, 0.2, 0.3]

    def test_same_deadline_callbacks_fire_in_schedule_order(self):
        runtime = self._runtime()
        fired = []
        for index in range(5):
            runtime.schedule_after(0.01, lambda index=index: fired.append(index))
        runtime.run(until=0.1)
        assert fired == [0, 1, 2, 3, 4]

    def test_callback_exception_propagates_out_of_run(self):
        """A callback exception ends the run at the failure point and
        re-raises from run(); no later event fires."""
        runtime = self._runtime()
        fired = []

        def boom():
            raise RuntimeError("protocol bug")

        runtime.schedule_at(0.05, boom)
        runtime.schedule_at(0.1, lambda: fired.append("after"))
        with pytest.raises(RuntimeError, match="protocol bug"):
            runtime.run(until=1.0)
        assert fired == []  # the run ended at the failure point

    def test_cancel_after_the_timer_fired_is_a_no_op(self):
        runtime = self._runtime()
        fired = []
        handle = runtime.schedule_at(0.1, lambda: fired.append(runtime.now()))
        runtime.schedule_at(0.2, lambda: runtime.cancel(handle))
        runtime.schedule_at(0.3, lambda: fired.append(runtime.now()))
        runtime.run(until=1.0)
        assert fired == [0.1, 0.3]
        assert not handle.cancelled

    def test_refuses_a_past_time(self):
        """``schedule_at`` before now raises instead of firing late."""
        runtime = self._runtime()
        errors = []

        def late():
            with pytest.raises(ValueError, match="past"):
                runtime.schedule_at(0.1, lambda: errors.append("fired"))
            errors.append(runtime.now())

        runtime.schedule_at(0.5, late)
        runtime.run(until=1.0)
        assert errors == [0.5]


# ---------------------------------------------------- multicast alignment
class _PassThrough:
    """An honest interceptor: observes every outbound message, changes none."""

    def __init__(self):
        self.seen = []

    def outbound(self, node, receiver, message):
        self.seen.append((node.node_id, receiver))
        return False


class TestMulticastInterceptorAlignment:
    def _run(self, interceptor):
        runtime = build_runtime(
            "des",
            seed=7,
            latency=UniformLatency(base=0.01, jitter=0.005),
            network_config=NetworkConfig(
                processing_delay=0.0, drop_probability=0.1, duplicate_probability=0.1
            ),
        )
        nodes = [_Echo(i, runtime) for i in range(5)]
        nodes[0].interceptor = interceptor
        for _ in range(20):
            nodes[0].multicast([1, 2, 3, 4], Sized("payload", 4096))
        runtime.run(until=5.0)
        received = {n.node_id: n.received for n in nodes}
        return runtime.stats, received

    def test_pass_through_interceptor_is_network_level_identical(self):
        """Regression: the interceptor path used to fall back to per-receiver
        ``send``, which could diverge from the fused fan-out on bandwidth,
        duplicate, and loss accounting.  With a pass-through interceptor the
        two paths must now be byte-identical — same stats, same delivery
        times — because the pass-through receivers go through the same
        ``runtime.multicast`` fan-out."""
        honest_stats, honest_received = self._run(None)
        interceptor = _PassThrough()
        intercepted_stats, intercepted_received = self._run(interceptor)
        assert interceptor.seen  # the interceptor really was in the path
        assert honest_stats == intercepted_stats
        assert honest_received == intercepted_received


# ------------------------------------------------------- crash / recovery
class _TimerNode(Node):
    def __init__(self, node_id, runtime):
        super().__init__(node_id, runtime)
        self.recoveries = 0
        self.fired = []

    def on_message(self, sender, message):
        pass

    def on_recover(self):
        self.recoveries += 1
        self.set_timer("heartbeat", 0.1, lambda: self.fired.append(self.now()))


class TestCrashRecoverTimers:
    def test_crash_drops_timers_and_recover_rearms_via_hook(self):
        runtime = build_runtime("des", latency=UniformLatency(base=0.01, jitter=0.0))
        node = _TimerNode(0, runtime)
        node.set_timer("heartbeat", 0.1, lambda: node.fired.append(node.now()))
        runtime.schedule_at(0.05, node.crash)
        runtime.schedule_at(0.2, node.recover)
        runtime.run(until=1.0)
        assert node.recoveries == 1
        # The pre-crash timer died with the crash; only the re-armed one fired.
        assert node.fired == [pytest.approx(0.3)]
        assert not node.crashed

    def test_recover_without_crash_is_a_no_op(self):
        runtime = build_runtime("des")
        node = _TimerNode(0, runtime)
        node.recover()
        assert node.recoveries == 0

    def test_recovered_leader_resumes_proposing(self):
        """A crashed-and-recovered leader must re-arm proposal pacing: its
        instance keeps confirming new blocks after the recovery."""
        from repro.bench.config import ExperimentCell
        from repro.protocols.registry import build_system
        from repro.sim.faults import CrashSpec, FaultConfig

        cell = ExperimentCell(
            protocol="ladon-pbft",
            n=4,
            duration=12.0,
            environment="lan",
            total_block_rate=16.0,
            batch_size=64,
        )
        system = build_system(
            cell, faults=FaultConfig(crashes=(CrashSpec(replica=1, at=2.0, recover_at=4.0),))
        )
        result = system.run()
        replica = system.replicas[1]
        assert not replica.crashed
        # Pacing was re-armed on recovery and instance 1 committed fresh
        # blocks well after the recovery point.
        late = [
            c
            for c in result.confirmed
            if c.block.instance == 1 and c.confirmed_at > 5.0 and c.block.proposed_at > 4.0
        ]
        assert late, "recovered leader never proposed again"
