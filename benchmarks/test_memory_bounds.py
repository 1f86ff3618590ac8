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
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CHILD = """
import json, resource, sys
sys.path.insert(0, {src!r})
from repro.bench.config import ExperimentCell
from repro.protocols.registry import build_system
cell = ExperimentCell(protocol="ladon-pbft", n=32, environment="wan",
                      duration={duration}, batch_size=1024)
system = build_system(cell.to_system_config())
result = system.run()
print(json.dumps({{
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "events": system.runtime.events_processed,
    "confirmed": len(result.confirmed),
}}))
"""


def _run_horizon(duration: float) -> dict:
    code = _CHILD.format(src=SRC, duration=duration)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


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
    """The n=128 WAN saturated cell is routinely runnable: the documented
    budget (EXPERIMENTS.md "Performance") is <= 400 MB peak RSS and about a
    half-million events per simulated second.  A 2-simulated-second slice
    keeps the guard fast; the full 10 s measurement is ``peak_rss_mb`` of
    ``pbft-wan-n128`` in ``python -m perfbench``."""
    code = _CHILD.format(src=SRC, duration=2.0).replace("n=32", "n=128")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    row = json.loads(out.stdout.strip().splitlines()[-1])
    # (confirmations need every instance's first proposal, which the stagger
    # spreads over a full 8 s proposal interval at m=128 — the 2 s slice
    # exercises the message hot path, not the confirmation tail)
    assert row["events"] > 500_000
    assert row["peak_rss_mb"] < 400.0, (
        f"n=128 slice peaked at {row['peak_rss_mb']:.1f} MB "
        "(reference machine: ~110 MB for this slice)"
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
        system = build_system(cell.to_system_config())
        system.run()
        return system

    def test_non_observers_keep_no_block_histories(self, system):
        observer = system._observer_id
        for replica_id, replica in system.replicas.items():
            if replica_id == observer:
                assert replica.metrics.confirmed  # the observer retains all
                continue
            assert replica.metrics.confirmed == []
            assert replica.metrics.confirmed_count > 0  # streaming counters live
            for instance in replica.instances.values():
                assert instance.delivered_blocks == []
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
            for buffered in orderer._by_instance.values():
                assert len(buffered) <= 2
            assert orderer.confirmed_count > 0
