"""Tests for the workload substrate and the metrics package."""

import pickle

import pytest

from repro.consensus.base import CommitLog
from repro.core.block import Block, BlockId
from repro.core.ordering import ConfirmedBlock
from repro.metrics.auditor import audit_logs
from repro.metrics.collector import MetricsCollector
from repro.metrics.latency import LatencyAccumulator
from repro.metrics.resources import CryptoCostModel, ResourceModel
from repro.metrics.throughput import ThroughputSeries, peak_throughput
from repro.workload.transactions import Batch


class TestBatch:
    def test_materialised_batch(self):
        # DQBFT's ordering batch: opaque block references at 64 B each.
        refs = tuple(BlockId(instance=i, round=1) for i in range(4))
        batch = Batch(txs=refs, submitted_at=1.5)
        assert batch.tx_count == 4
        assert batch.size_bytes == 4 * 64
        assert batch.submitted_at == 1.5

    def test_synthetic_batch(self):
        batch = Batch.synthetic(4096, submitted_at=3.0)
        assert batch.tx_count == 4096
        assert batch.size_bytes == 4096 * 500
        assert batch.submitted_at == 3.0

    def test_empty_batch(self):
        batch = Batch.empty()
        assert batch.tx_count == 0
        assert batch.size_bytes == 0

    def test_cannot_mix_representations(self):
        with pytest.raises(ValueError):
            Batch(txs=(1,), synthetic_count=5)


    def test_synthetic_size_scales_with_payload(self):
        assert Batch.synthetic(3, 0.0).size_bytes == 1500
        assert Batch.synthetic(3, 0.0, payload_bytes=250).size_bytes == 750

    def test_negative_synthetic_count_rejected(self):
        with pytest.raises(ValueError):
            Batch(synthetic_count=-1)

    def test_batch_is_immutable(self):
        batch = Batch.synthetic(2, 0.5)
        with pytest.raises(AttributeError):
            batch.submitted_at = 1.0


class TestThroughput:
    def test_series_bins(self):
        series = ThroughputSeries(bin_width=1.0)
        series.record(0.5, 100)
        series.record(0.7, 50)
        series.record(2.2, 30)
        points = dict(series.series(until=3.0))
        assert points[0.0] == 150
        assert points[1.0] == 0
        assert points[2.0] == 30

    def test_average_and_peak(self):
        series = ThroughputSeries()
        series.record(0.5, 100)
        series.record(1.5, 300)
        assert series.average(2.0) == 200
        assert series.peak() == 300

    def test_peak_throughput_helper(self):
        assert peak_throughput([(0.1, 10), (0.2, 10), (1.5, 5)]) == 20

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            ThroughputSeries().record(0.0, -1)

    def test_negative_time_clamped_into_bin_zero(self):
        # Regression: negative timestamps used to land in negative bins that
        # series() silently dropped while total_txs/peak() still counted them.
        series = ThroughputSeries(bin_width=1.0)
        series.record(-0.5, 10)
        series.record(0.5, 5)
        points = dict(series.series())
        assert points[0.0] == 15
        assert series.total_txs == 15
        assert series.peak() == 15
        assert sum(count for _, count in series.series()) == series.total_txs

    def test_bin_zero_boundary(self):
        series = ThroughputSeries(bin_width=2.0)
        series.record(0.0, 3)
        series.record(2.0, 4)  # exactly on a bin edge opens the next bin
        points = dict(series.series())
        assert points[0.0] == 1.5
        assert points[2.0] == 2.0

    def test_series_until_none_and_empty(self):
        assert ThroughputSeries().series() == []
        assert ThroughputSeries().series(until=None) == []

    def test_series_negative_until_clamped(self):
        series = ThroughputSeries()
        assert series.series(until=-3.0) == [(0.0, 0.0)]


class TestLatencyAccumulator:
    def test_weighted_average(self):
        acc = LatencyAccumulator()
        acc.record_block(0.0, 1.0, tx_count=1)
        acc.record_block(0.0, 3.0, tx_count=3)
        assert acc.average() == pytest.approx((1.0 + 9.0) / 4)

    def test_zero_tx_blocks_ignored(self):
        acc = LatencyAccumulator()
        acc.record_block(0.0, 5.0, tx_count=0)
        assert acc.count == 0

    def test_percentile(self):
        acc = LatencyAccumulator()
        for i in range(1, 11):
            acc.record_block(0.0, float(i), tx_count=1)
        assert acc.percentile(100) == 10.0
        assert acc.percentile(10) <= acc.percentile(90)


class TestResources:
    def test_crypto_cost_charged(self):
        model = ResourceModel()
        model.record_crypto(0, "verify", count=10)
        usage = model.usage(0)
        assert usage.crypto_ops["verify"] == 10
        assert usage.cpu_seconds == pytest.approx(10 * CryptoCostModel().verify)

    def test_unknown_operation_rejected(self):
        with pytest.raises(KeyError):
            ResourceModel().record_crypto(0, "teleport")

    def test_bandwidth_accounting(self):
        model = ResourceModel()
        model.record_bytes_sent(1, 2_000_000)
        assert model.usage(1).bandwidth_mbps(2.0) == pytest.approx(1.0)

    def test_cpu_percent_normalised_by_duration(self):
        model = ResourceModel()
        model.record_crypto(0, "sign", count=40_000)  # 1 CPU-second at 25 us
        assert model.usage(0).cpu_percent(duration=1.0) == pytest.approx(100.0, rel=0.01)

    def test_averages_over_replicas(self):
        model = ResourceModel()
        model.record_bytes_sent(0, 1_000_000)
        model.record_bytes_sent(1, 3_000_000)
        assert model.average_bandwidth_mbps(1.0) == pytest.approx(2.0)
        assert model.total_bytes() == 4_000_000


class TestMetricsCollector:
    def _confirmed(self, sn, tx_count, confirmed_at, submitted_at=0.0):
        block = Block(
            instance=0, round=sn + 1, rank=sn, tx_count_hint=tx_count,
            proposed_at=submitted_at, committed_at=confirmed_at, batch_submitted_at=submitted_at,
        )
        return ConfirmedBlock(block=block, sn=sn, confirmed_at=confirmed_at)

    def test_summary_counts(self):
        collector = MetricsCollector()
        collector.record_partial_commit()
        collector.record_partial_commit()
        collector.record_confirmations([self._confirmed(0, 100, 1.0), self._confirmed(1, 50, 2.0)])
        metrics = collector.summarise("ladon-pbft", n=4, stragglers=0, duration=10.0)
        assert metrics.confirmed_blocks == 2
        assert metrics.confirmed_txs == 150
        assert metrics.partially_committed_blocks == 2
        assert metrics.throughput_tps == pytest.approx(15.0)
        assert metrics.causal_strength == 1.0

    def test_warmup_excluded_from_throughput(self):
        collector = MetricsCollector()
        collector.record_confirmation(self._confirmed(0, 100, confirmed_at=1.0))
        collector.record_confirmation(self._confirmed(1, 100, confirmed_at=9.0))
        metrics = collector.summarise("iss-pbft", n=4, stragglers=0, duration=10.0, warmup=5.0)
        assert metrics.confirmed_txs == 100

    def test_as_dict_round_trip(self):
        collector = MetricsCollector()
        collector.record_confirmation(self._confirmed(0, 10, 1.0))
        metrics = collector.summarise("mir", n=4, stragglers=1, duration=5.0)
        data = metrics.as_dict()
        assert data["protocol"] == "mir"
        assert data["stragglers"] == 1


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
