"""Tests for the workload substrate and the metrics package."""

import pickle

import pytest

from repro.consensus.base import CommitLog
from repro.core.block import Block, BlockId
from repro.core.ordering import ConfirmedBlock
from repro.metrics.auditor import audit_logs
from repro.metrics.collector import summarise, throughput_series
from repro.bench.config import ExperimentCell
from repro.consensus.messages import Prepare
from repro.metrics.resources import CryptoCostModel
from repro.protocols.registry import build_system
from repro.workload.transactions import Batch


class TestBatch:
    def test_materialised_batch(self):
        # DQBFT's ordering batch: opaque block references.
        refs = tuple(BlockId(instance=i, round=1) for i in range(4))
        batch = Batch(txs=refs, submitted_at=1.5)
        assert batch.tx_count == 4
        assert batch.submitted_at == 1.5

    def test_synthetic_batch(self):
        batch = Batch.synthetic(4096, submitted_at=3.0)
        assert batch.tx_count == 4096
        assert batch.submitted_at == 3.0

    def test_empty_batch(self):
        assert Batch.empty().tx_count == 0

    def test_cannot_mix_representations(self):
        with pytest.raises(ValueError):
            Batch(txs=(1,), synthetic_count=5)

    def test_negative_synthetic_count_rejected(self):
        with pytest.raises(ValueError):
            Batch(synthetic_count=-1)

    def test_batch_is_immutable(self):
        batch = Batch.synthetic(2, 0.5)
        with pytest.raises(AttributeError):
            batch.submitted_at = 1.0


def confirmed(sn, tx_count, confirmed_at, submitted_at=0.0):
    """A hand-built confirmation of ``tx_count`` transactions submitted at
    ``submitted_at``."""
    block = Block(
        instance=0, round=sn + 1, rank=sn, tx_count_hint=tx_count,
        proposed_at=submitted_at, committed_at=confirmed_at, batch_submitted_at=submitted_at,
    )
    return ConfirmedBlock(block=block, sn=sn, confirmed_at=confirmed_at)


def log(*entries):
    """A confirmed log of ``(tx_count, confirmed_at[, submitted_at])`` rows."""
    return tuple(confirmed(sn, *entry) for sn, entry in enumerate(entries))


def summary(entries, duration=10.0, partially_committed=0):
    return summarise(
        entries, partially_committed, "ladon-pbft", n=4, stragglers=0, duration=duration
    )


class TestThroughputSeries:
    def test_series_bins(self):
        points = dict(throughput_series(log((100, 0.5), (50, 0.7), (30, 2.2)), until=3.0))
        assert points[0.0] == 150
        assert points[1.0] == 0
        assert points[2.0] == 30

    def test_total_and_peak(self):
        metrics = summary(log((100, 0.5), (300, 1.5)))
        assert metrics.confirmed_txs == 400
        assert metrics.peak_throughput_tps == 300

    def test_peak_sums_one_bin(self):
        assert summary(log((10, 0.1), (10, 0.2), (5, 1.5))).peak_throughput_tps == 20

    def test_negative_time_clamped_into_bin_zero(self):
        # Regression: negative timestamps used to land in negative bins that
        # the series silently dropped while the totals and the peak still
        # counted them.
        entries = log((10, -0.5), (5, 0.5))
        points = dict(throughput_series(entries, until=None))
        assert points[0.0] == 15
        metrics = summary(entries)
        assert metrics.confirmed_txs == 15
        assert metrics.peak_throughput_tps == 15
        assert sum(count for _, count in throughput_series(entries, None)) == 15

    def test_bin_zero_boundary(self):
        # exactly on a bin edge opens the next bin
        points = dict(throughput_series(log((3, 0.0), (4, 1.0)), until=None))
        assert points == {0.0: 3.0, 1.0: 4.0}

    def test_series_until_none_and_empty(self):
        assert throughput_series((), until=None) == []

    def test_series_negative_until_clamped(self):
        assert throughput_series((), until=-3.0) == [(0.0, 0.0)]


class TestSummarise:
    def test_weighted_average(self):
        metrics = summary(log((1, 1.0), (3, 3.0)))
        assert metrics.average_latency_s == pytest.approx((1.0 + 9.0) / 4)

    def test_zero_tx_blocks_kept_out_of_latency(self):
        metrics = summary(log((0, 5.0)))
        assert metrics.average_latency_s == 0.0
        assert metrics.max_latency_s == 0.0
        assert metrics.confirmed_blocks == 1
        assert summary(log((2, 1.0), (0, 9.0))).max_latency_s == 1.0

    def test_latency_from_proposal_without_batch_time(self):
        block = Block(instance=0, round=1, rank=0, tx_count_hint=4, proposed_at=1.0)
        entries = (ConfirmedBlock(block=block, sn=0, confirmed_at=3.0),)
        assert summary(entries).average_latency_s == 2.0

    def test_maximum(self):
        assert summary(log(*((1, float(i)) for i in range(1, 11)))).max_latency_s == 10.0

    def test_summary_counts(self):
        metrics = summary(log((100, 1.0), (50, 2.0)), partially_committed=2)
        assert metrics.confirmed_blocks == 2
        assert metrics.confirmed_txs == 150
        assert metrics.partially_committed_blocks == 2
        assert metrics.throughput_tps == pytest.approx(15.0)
        assert metrics.causal_strength == 1.0

    def test_empty_log(self):
        metrics = summary((), duration=0.0)
        assert metrics.throughput_tps == 0.0
        assert metrics.peak_throughput_tps == 0.0
        assert metrics.causal_strength == 1.0

    def test_as_dict_round_trip(self):
        metrics = summarise(log((10, 1.0)), 0, "mir", n=4, stragglers=1, duration=5.0)
        data = metrics.as_dict()
        assert data["protocol"] == "mir"
        assert data["stragglers"] == 1


class TestResources:
    """Runs account through the replica: ``record_crypto_op`` for crypto,
    ``send_protocol_message`` for bytes; both charge its usage record."""

    @staticmethod
    def replicas():
        system = build_system(ExperimentCell(
            protocol="ladon-pbft", n=4, batch_size=64, duration=1.0, environment="lan", seed=1,
        ))
        return system.replicas

    @staticmethod
    def send(replica, size_bytes):
        """One unicast of ``size_bytes`` from ``replica`` to its successor."""
        message = Prepare(sender=replica.node_id, instance=0, view=0, round=1)
        replica.send_protocol_message((replica.node_id + 1) % 4, message, size_bytes)

    def test_crypto_cost_charged(self):
        replica = self.replicas()[0]
        replica.record_crypto_op("verify", count=10)
        usage = replica.resources.usage(0)
        assert usage.crypto_ops["verify"] == 10
        assert usage.cpu_seconds == pytest.approx(10 * CryptoCostModel().verify)

    def test_unknown_operation_rejected(self):
        with pytest.raises(KeyError):
            self.replicas()[0].record_crypto_op("teleport")

    def test_bandwidth_accounting(self):
        replica = self.replicas()[1]
        self.send(replica, 2_000_000)
        assert replica.resources.usage(1).bandwidth_mbps(2.0) == pytest.approx(1.0)

    def test_cpu_percent_normalised_by_duration(self):
        replica = self.replicas()[0]
        replica.record_crypto_op("sign", count=40_000)  # 1 CPU-second at 25 us
        assert replica.resources.usage(0).cpu_percent(duration=1.0) == pytest.approx(100.0, rel=0.01)

    def test_averages_over_replicas(self):
        replicas = self.replicas()
        self.send(replicas[0], 1_000_000)
        self.send(replicas[1], 3_000_000)
        resources = replicas[0].resources
        assert resources.average_bandwidth_mbps(1.0) == pytest.approx(2.0)
        assert sum(u.bytes_sent for u in resources.per_replica().values()) == 4_000_000


def commit_log(*commits):
    log = CommitLog()
    for round_, digest, at in commits:
        log.record(round_, digest, at)
    return log


class TestCommitLog:
    def test_columns_are_allocated_by_the_first_commit(self):
        log = CommitLog()
        assert log.rounds is None and log.digests is None and log.last_at is None
        assert len(log) == 0 and list(log) == []
        log.record(1, "d1", 0.5)
        log.record(2, "d2", 0.75)
        assert list(log) == [(1, "d1"), (2, "d2")]
        assert len(log) == 2 and log.last_at == 0.75

    @pytest.mark.parametrize("commits", [(), ((1, "a", 1.0), (3, "b", 2.5))])
    def test_pickles(self, commits):
        log = commit_log(*commits)
        copy = pickle.loads(pickle.dumps(log))
        assert list(copy) == list(log)
        assert copy.last_at == log.last_at
        assert copy.rounds == log.rounds


class TestAuditLogs:
    """``audit_logs`` over columnar commit logs (every replica honest)."""

    def audit(self, partial, duration=10.0, stall_window=4.0, live=None):
        return audit_logs(
            partial,
            {replica: [] for replica in partial},
            duration=duration,
            stall_window=stall_window,
            live_replicas=sorted(partial) if live is None else live,
            liveness_instances=range(2),
        )

    def test_two_digests_at_one_slot_conflict(self):
        report = self.audit({
            0: {0: commit_log((1, "aa", 9.0), (2, "bb", 9.5))},
            1: {0: commit_log((1, "aa", 9.0), (2, "XX", 9.5))},
        })
        assert [v.kind for v in report.violations] == ["conflicting-commit"]
        assert "instance 0 round 2" in report.violations[0].detail
        assert report.checked_partial_commits == 4

    def test_agreeing_logs_are_safe_and_live(self):
        log = commit_log((1, "aa", 8.0))
        report = self.audit({0: {0: log, 1: log}, 1: {0: log, 1: log}})
        assert report.safety_ok and report.live

    def test_last_commit_before_the_window_is_stalled(self):
        fresh = commit_log((1, "aa", 2.0), (2, "bb", 7.0))
        stale = commit_log((1, "aa", 2.0), (2, "bb", 5.9))  # 10 - 4 = 6
        report = self.audit({0: {0: fresh, 1: fresh}, 1: {0: fresh, 1: stale}})
        assert report.stalled_instances == (1,)
        # a crashed (non-live) replica's silence is not a stall
        assert self.audit(
            {0: {0: fresh, 1: fresh}, 1: {0: fresh, 1: stale}}, live=[0]
        ).live

    def test_instance_without_commits_is_stalled(self):
        fresh = commit_log((1, "aa", 9.0))
        report = self.audit({0: {0: fresh, 1: CommitLog()}, 1: {0: fresh, 1: fresh}})
        assert report.stalled_instances == (1,)
        # an instance a live replica has no log for at all stalls too
        report = self.audit({0: {0: fresh, 1: fresh}, 1: {0: fresh}})
        assert report.stalled_instances == (1,)
