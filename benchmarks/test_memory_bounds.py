"""Bounded-memory guards for the protocol layer.

PR 5 made long DES runs O(active-window) in memory: committed round
entries and their quorum vote state are pruned as the contiguous committed
prefix advances, rank-report buffers follow the proposal cursor, the
orderers drop per-round buffers behind the partially-confirmed prefix, and
every replica except the observer keeps compact audit fingerprints instead
of full Block/ConfirmedBlock histories.

Reference points on the reference machine (ladon-pbft n=32 WAN saturated,
measured in PR 5): pre-overhaul peak RSS grew 44.8 → 63.2 → 93.5 MB over
5 → 10 → 20 simulated seconds (~1.45x per horizon doubling); post-overhaul
it is ~34 → 38 → 40 MB (~1.08x per doubling).

The doubling test runs each horizon in a fresh subprocess because peak RSS
(``ru_maxrss``) is a process-lifetime high-water mark.

PR 22 put the per-(replica, instance) state on a diet — each replica hosts
every instance, so a byte there is paid n² times — and
:class:`TestBuildFootprint` holds it there without involving RSS or the
machine: ``tracemalloc`` bytes and object-kind counts of ``build_system``.

A held confirmation bar costs the backlog and no more, and pays it in
blocks once: the dynamic orderer keeps one heap entry per pending block,
its lazy bar heap is rebuilt once it passes ``2m + 16`` entries, instance
commit logs are columnar (``CommitLog``), and only the observer holds
pending blocks as ``Block`` objects — every other replica holds their
fingerprint fields.  ``test_orderer_buffers_pruned`` checks those
invariants after a run, ``tests/test_core_ordering.py`` under a 2 000-round
straggler, and ``test_straggler_backlog_within_budget`` holds the peak RSS
of a slice of the straggler cell, where the backlog builds up.

Memory also has to come back *during* the run.  :class:`TestRunPhaseFootprint`
checks, for every registry protocol after a short saturated run, that no
per-(replica, instance) dict that emptied still holds its hash table
(``pop`` never shrinks one; ``clear`` frees it), that no timer cancelled
through the queue still waits in a far calendar bucket, and, after a run
with one straggler, that no non-observer orderer references a
``Block``/``ConfirmedBlock``.
``test_run_path_imports_no_unused_stdlib`` keeps ``asyncio``/``ssl`` and
``concurrent.futures`` (~4 MiB per process, paid again by every forked shard
worker) off the import path of a DES run, and ``hmac`` too: no run computes a
signature, so nothing on that path needs it.  The CI ``perfbench-smoke`` job
runs these next to the n=128 and straggler slices, so every memory guard
runs in one place.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
import types

import pytest

from repro.bench.config import ExperimentCell
from repro.consensus.quorum import QuorumTracker
from repro.core.ordering import _BAR_HEAP_SLACK
from repro.protocols.registry import available_protocols, build_system

from reference_orderer import held_blocks

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The child reads its peak from VmHWM, not ``ru_maxrss``: Linux carries the
# forking process's high-water mark across exec into ``ru_maxrss``, so a
# child of a pytest process that has grown past the budget would report the
# parent's RSS.
_CHILD = """
import json, resource, sys
sys.path.insert(0, {src!r})
from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system
system = build_system(ExperimentCell(**{cell!r}))
result = system.run()
try:
    with open("/proc/self/status") as status:
        peak_kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({{
    "peak_rss_mb": peak_kb / 1024.0,
    "events": system.runtime.events_processed,
    "confirmed": len(result.confirmed),
    "pending": system.replicas[system.observer_id()].orderer.pending_count,
}}))
"""


def _run_child(**cell) -> dict:
    """Run one WAN cell in a fresh interpreter; its peak RSS is its own."""
    code = _CHILD.format(src=SRC, cell=dict(cell, environment="wan"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _run_horizon(duration: float) -> dict:
    return _run_child(protocol="ladon-pbft", n=32, duration=duration, batch_size=1024)


@pytest.mark.slow
def test_peak_rss_sublinear_in_horizon():
    """Doubling the simulated horizon must not come close to doubling peak
    RSS: retained state is O(active window), and only the observer keeps
    full histories.  (The pre-overhaul code measured ~1.45x per doubling;
    the bound here also gives a hard absolute ceiling for the long run.)"""
    short = _run_horizon(6.0)
    long = _run_horizon(12.0)
    assert long["events"] > 1.8 * short["events"]  # the workload really doubled
    ratio = long["peak_rss_mb"] / short["peak_rss_mb"]
    assert ratio < 1.30, (
        f"peak RSS grew {ratio:.2f}x when the horizon doubled "
        f"({short['peak_rss_mb']:.1f} -> {long['peak_rss_mb']:.1f} MB): "
        "memory is no longer O(active window)"
    )
    assert long["peak_rss_mb"] < 120.0, (
        f"12-simulated-second n=32 cell peaked at {long['peak_rss_mb']:.1f} MB "
        "(reference machine: ~38 MB; pre-overhaul: ~70 MB)"
    )


@pytest.mark.slow
def test_n128_cell_within_budget():
    """The n=128 WAN saturated cell is routinely runnable: a
    2-simulated-second slice — 16 384 instances built, the first 800 k
    events — peaks at ~56 MB RSS on the reference machine (CPython 3.11;
    ~22 MB of it is the interpreter with the package imported) and the
    budget is ~25 % above that.  The slice keeps the guard fast (~10 s, so
    CI runs it); the full
    10 s measurement is ``peak_rss_mb`` of ``pbft-wan-n128`` in
    ``python -m perfbench`` (EXPERIMENTS.md "Performance" > "Memory")."""
    row = _run_child(protocol="ladon-pbft", n=128, duration=2.0, batch_size=1024)
    # (confirmations need every instance's first proposal, which the stagger
    # spreads over a full 8 s proposal interval at m=128 — the 2 s slice
    # exercises the message hot path, not the confirmation tail)
    assert row["events"] > 500_000
    assert row["peak_rss_mb"] < 70.0, (
        f"n=128 slice peaked at {row['peak_rss_mb']:.1f} MB "
        "(reference machine: ~56 MB for this slice)"
    )


@pytest.mark.slow
def test_straggler_backlog_within_budget():
    """A straggler's backlog is paid once, at the observer: the first
    120 sim-s of ``hotstuff-straggler-wan-n64`` (ladon-hotstuff, n=64, one
    10x straggler; ~4 s wall, ~1.7 k blocks pending behind the bar) peak at
    ~44.9 MB RSS on the reference machine (CPython 3.11), against ~60.7 MB
    when every replica held the backlog as ``Block`` objects; the budget is
    ~25 % above the measurement.  The full 200 sim-s cell is ``peak_rss_mb``
    of ``hotstuff-straggler-wan-n64`` in ``python -m perfbench``."""
    row = _run_child(
        protocol="ladon-hotstuff", n=64, stragglers=1, straggler_slowdown=10.0,
        duration=120.0, batch_size=1024,
    )
    assert row["pending"] > 1000  # the backlog really built up
    assert row["peak_rss_mb"] < 56.0, (
        f"straggler slice peaked at {row['peak_rss_mb']:.1f} MB "
        "(reference machine: ~44.9 MB for this slice)"
    )


def _config(protocol: str, n: int):
    return ExperimentCell(
        protocol=protocol, n=n, environment="wan", duration=1.0, batch_size=256
    )


class TestBuildFootprint:
    """What ``build_system`` leaves allocated, per (replica, instance).

    Budgets are bytes per (replica, instance) at n = m = 16, ~15 % above the
    CPython 3.11 measurement in the comment (3.12 and 3.13 read within 1 %
    of it).  At n=16 each replica's fixed state (orderer, metrics, route
    rows: ~7 KB) still weighs ~400 B per instance; ladon-pbft is 1501 B at
    n=64.  The parent of PR 22 measured 4973 B for ladon-pbft here and
    3142-6294 B for the others.
    """

    BUDGET_BYTES = {
        "dqbft": 1875,           # 1630
        "iss-hotstuff": 1225,    # 1067
        "iss-pbft": 1570,        # 1365
        "ladon-hotstuff": 1705,  # 1485
        "ladon-opt": 2075,       # 1804
        "ladon-pbft": 2065,      # 1795
        "mir": 1565,             # 1362
        "rcc": 1710,             # 1487
    }

    #: CPython 3.10 gives every instance a full ``__dict__`` (3.11 stores the
    #: values inline), so the same structures read up to 15 % higher there
    VERSION_FACTOR = 1.15 if sys.version_info < (3, 11) else 1.0

    #: object kinds the diet removed from the per-instance state: lambdas
    #: and their cells, eagerly created sets, bound handler methods
    KINDS = {
        "function": types.FunctionType,
        "cell": types.CellType,
        "set": set,
        "method": types.MethodType,
    }

    def test_every_registered_protocol_has_a_budget(self):
        assert sorted(self.BUDGET_BYTES) == available_protocols()

    @pytest.mark.parametrize("protocol", sorted(BUDGET_BYTES))
    def test_bytes_per_replica_instance_within_budget(self, protocol):
        n = 16
        build_system(_config(protocol, 4))  # import-time and first-use state
        config = _config(protocol, n)
        gc.collect()
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            system = build_system(config)
            gc.collect()
            built = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(system.replicas) == n
        per_instance = built / (n * config.n)
        budget = self.BUDGET_BYTES[protocol] * self.VERSION_FACTOR
        assert per_instance <= budget, (
            f"{protocol}: build_system leaves {per_instance:.0f} B per (replica, "
            f"instance) at n={n}, budget {budget:.0f} B — state that every "
            "instance at every replica holds is paid n^2 times"
        )

    def _census(self):
        gc.collect()
        counts = dict.fromkeys(self.KINDS, 0)
        for obj in gc.get_objects():
            for kind, cls in self.KINDS.items():
                if type(obj) is cls:
                    counts[kind] += 1
        return counts

    @pytest.mark.parametrize("protocol", sorted(BUDGET_BYTES))
    def test_object_kinds_do_not_scale_with_n_squared(self, protocol):
        """Doubling n may double these counts (per-replica state), never
        quadruple them (per-(replica, instance) state)."""
        grown = {}
        for n in (8, 16):
            before = self._census()
            system = build_system(_config(protocol, n))
            after = self._census()
            assert len(system.replicas) == n
            grown[n] = {kind: after[kind] - before[kind] for kind in self.KINDS}
            del system
        for kind in self.KINDS:
            assert grown[16][kind] <= 2 * grown[8][kind] + 16, (
                f"{protocol}: {kind} objects after build grew "
                f"{grown[8][kind]} -> {grown[16][kind]} from n=8 to n=16"
            )


class TestBoundedStateStructure:
    """Fast tier-1 checks: the per-replica containers that used to leak are
    empty (or watermark-sized) after a saturated run."""

    @pytest.fixture(scope="class")
    def system(self):
        cell = ExperimentCell(
            protocol="ladon-pbft", n=8, environment="wan", duration=8.0,
            batch_size=256,
        )
        system = build_system(cell)
        system.run()
        return system

    def test_non_observers_keep_no_block_histories(self, system):
        observer = system._observer_id
        for replica_id, replica in system.replicas.items():
            if replica_id == observer:
                assert replica.orderer.confirmed  # the observer retains all
                continue
            # the others confirm through their orderer, which hands out no
            # blocks
            with pytest.raises(RuntimeError):
                replica.orderer.confirmed
            assert replica.orderer.confirmed_count > 0
            for instance in replica.instances.values():
                assert len(instance.commit_log) > 0  # compact audit log

    def test_committed_round_entries_pruned(self, system):
        for replica in system.replicas.values():
            for instance in replica.instances.values():
                committed_rounds = instance.last_committed_round
                assert committed_rounds > 3  # the run made progress
                # The log holds only the active window above the watermark.
                assert len(instance.log) <= committed_rounds / 2 + 4
                assert instance._stable_round > 0

    def test_quorum_vote_state_released(self, system):
        for replica in system.replicas.values():
            for instance in replica.instances.values():
                # Vote state is cleared on commit: only in-flight rounds
                # (and stragglers' late keys) remain.
                assert instance.prepare_votes.tracked_keys() <= 6
                assert instance.commit_votes.tracked_keys() <= 6

    def test_rank_reports_follow_cursor(self, system):
        for replica in system.replicas.values():
            for instance in replica.instances.values():
                reports = getattr(instance, "rank_reports", None)
                if reports is None:
                    continue
                assert len(reports) <= 3  # only rounds near the cursor

    def test_orderer_buffers_pruned(self, system):
        for replica in system.replicas.values():
            orderer = replica.orderer
            m = orderer.num_instances
            # one heap entry per pending block and nothing else; the
            # out-of-order round buffers and the lazy bar heap stay O(m)
            assert orderer.pending_count == len(orderer._heap) <= 2 * m
            assert sum(len(buffered) for buffered in orderer._by_instance) <= m
            assert len(orderer._bar_heap) <= 2 * m + _BAR_HEAP_SLACK
            assert orderer.confirmed_count > 0


_IMPORTS = """
import json, sys
sys.path.insert(0, {src!r})
import repro.protocols.registry, repro.bench.config, repro.metrics.auditor
loaded = [name for name in ("asyncio", "ssl", "concurrent.futures", "hmac") if name in sys.modules]
from repro.bench import SweepRunner
from repro.runtime import RealtimeRuntime, build_runtime
runtime = build_runtime("realtime", time_scale=0.01)
fired = []
runtime.schedule_after(0.5, lambda: fired.append(runtime.now()))
runtime.run(until=1.0)
print(json.dumps({{
    "loaded": loaded,
    "realtime": type(runtime) is RealtimeRuntime,
    "fired": len(fired),
    "sweep": SweepRunner(workers=2).run([]),
}}))
"""


def test_run_path_imports_no_unused_stdlib():
    """Building and auditing a DES run imports neither the realtime backend's
    asyncio (and ssl) nor the sweep pool's concurrent.futures, both of which
    still load on first use, nor hmac, which no run needs."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORTS.format(src=SRC)],
        capture_output=True, text=True, check=True,
    )
    row = json.loads(out.stdout.strip().splitlines()[-1])
    assert row == {"loaded": [], "realtime": True, "fired": 1, "sweep": []}


def _tables(owner):
    """``(name, dict)`` for every dict ``owner`` holds directly, in a quorum
    tracker, or in a list (the orderer's per-instance round buffers)."""
    for name, value in vars(owner).items():
        if isinstance(value, QuorumTracker):
            yield f"{name}._votes", value._votes
        elif isinstance(value, dict):
            yield name, value
        elif isinstance(value, list):
            for index, item in enumerate(value):
                if isinstance(item, dict):
                    yield f"{name}[{index}]", item


class TestRunPhaseFootprint:
    """After a short saturated run, nothing emptied still holds memory, and
    only the observer holds a straggler's backlog as blocks."""

    @pytest.fixture(scope="class", params=available_protocols())
    def system(self, request):
        cell = ExperimentCell(
            protocol=request.param, n=8, environment="wan", duration=3.0,
            batch_size=256,
        )
        system = build_system(cell)
        system.run()
        return system

    def test_emptied_dicts_give_their_tables_back(self, system):
        empty = sys.getsizeof({})
        held = []
        for replica_id, replica in system.replicas.items():
            owners = [("orderer", replica.orderer)] + [
                (f"instance {instance_id}", instance)
                for instance_id, instance in replica.instances.items()
            ]
            for label, owner in owners:
                held.extend(
                    f"replica {replica_id} {label}: {name} ({sys.getsizeof(table)} B)"
                    for name, table in _tables(owner)
                    if not table and sys.getsizeof(table) > empty
                )
        assert not held, "empty dicts still holding a hash table:\n" + "\n".join(held[:20])
        assert all(replica.orderer.confirmed_count > 0 for replica in system.replicas.values())

    def test_no_queue_cancelled_timer_waits_in_a_far_bucket(self, system):
        queue = system.runtime.simulator.queue
        dead = [
            entry
            for entries in queue._far.values()
            for entry in entries
            if entry[2] is None and entry[3].cancelled and not entry[3].live
        ]
        assert not dead, f"{len(dead)} cancelled timers still queued in far buckets"
        assert system.runtime.simulator.now() == 3.0

    @pytest.fixture(scope="class", params=available_protocols())
    def straggler_system(self, request):
        # a 4x straggler: slow enough to hold a backlog, fast enough that
        # HotStuff's 3-chain commits its first block within the run
        cell = ExperimentCell(
            protocol=request.param, n=8, stragglers=1, straggler_slowdown=4.0,
            environment="wan", duration=8.0, batch_size=256,
        )
        system = build_system(cell)
        system.run()
        return system

    def test_non_observers_hold_no_blocks(self, straggler_system):
        system = straggler_system
        observer_id = system._observer_id
        # the straggler holds the bar (or leaves a hole), so a backlog exists
        assert system.replicas[observer_id].orderer.pending_count > 0
        assert all(replica.orderer.confirmed_count > 0 for replica in system.replicas.values())
        held = [
            f"replica {replica_id} orderer: {type(obj).__name__}"
            for replica_id, replica in system.replicas.items()
            if replica_id != observer_id
            for obj in held_blocks(replica.orderer)
        ]
        assert not held, "non-observers still hold blocks:\n" + "\n".join(held[:20])
