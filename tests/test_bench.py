"""Tests for the benchmark harness: cells, runner, analytical engine, report."""

import pytest

from repro.bench.analytical import run_analytical
from repro.bench.config import ExperimentCell
from repro.bench.report import format_series, format_table
from repro.bench.runner import run_cell
from repro.bench import experiments
from repro.scenario import ScenarioSpec
from repro.sim.faults import FaultConfig


class TestExperimentCell:
    def test_block_rate_defaults(self):
        assert ExperimentCell(protocol="iss-pbft", n=8, environment="wan").block_rate() == 16.0
        assert ExperimentCell(protocol="iss-pbft", n=8, environment="lan").block_rate() == 32.0
        assert ExperimentCell(protocol="iss-pbft", n=8, total_block_rate=4.0).block_rate() == 4.0

    def test_resolve_carries_faults(self):
        cell = ExperimentCell(protocol="ladon-pbft", n=8, stragglers=2, byzantine=True)
        faults = cell.resolve().faults
        assert faults.straggler_count() == 2
        assert all(faults.is_byzantine(r) for r in faults.straggler_map())
        assert faults == cell.fault_config()  # the rule the analytical engine reads too

    def test_resolve_refuses_a_custom_piece_the_cell_also_names(self):
        with pytest.raises(ValueError, match="faults"):
            ExperimentCell(protocol="ladon-pbft", n=8, stragglers=1).resolve(faults=FaultConfig())
        with pytest.raises(ValueError, match="scenario"):
            ExperimentCell(protocol="ladon-pbft", n=8, scenario="lan").resolve(
                scenario=ScenarioSpec.preset("wan")
            )

    def test_label(self):
        cell = ExperimentCell(protocol="ladon-pbft", n=16, stragglers=1, byzantine=True)
        assert cell.label() == "ladon-pbft-n16-s1-byz-wan"


class TestAnalyticalEngine:
    def test_deterministic(self):
        config = ExperimentCell(protocol="ladon-pbft", n=16, stragglers=1, duration=60.0, seed=3)
        a = run_analytical(config)
        b = run_analytical(config)
        assert a.throughput_tps == b.throughput_tps
        assert a.average_latency_s == b.average_latency_s

    def test_no_straggler_protocols_comparable(self):
        ladon = run_analytical(ExperimentCell(protocol="ladon-pbft", n=32, duration=60.0))
        iss = run_analytical(ExperimentCell(protocol="iss-pbft", n=32, duration=60.0))
        assert ladon.throughput_tps == pytest.approx(iss.throughput_tps, rel=0.1)

    def test_straggler_separates_ladon_from_iss(self):
        ladon = run_analytical(
            ExperimentCell(protocol="ladon-pbft", n=32, stragglers=1, duration=120.0)
        )
        iss = run_analytical(
            ExperimentCell(protocol="iss-pbft", n=32, stragglers=1, duration=120.0)
        )
        assert ladon.throughput_tps > 3 * iss.throughput_tps
        assert iss.average_latency_s > ladon.average_latency_s

    def test_dqbft_declines_at_scale(self):
        small = run_analytical(ExperimentCell(protocol="dqbft", n=16, duration=60.0))
        large = run_analytical(ExperimentCell(protocol="dqbft", n=128, duration=60.0))
        assert large.throughput_tps < 0.8 * small.throughput_tps

    def test_ladon_causal_strength_one(self):
        metrics = run_analytical(
            ExperimentCell(protocol="ladon-pbft", n=16, stragglers=2, duration=120.0)
        )
        assert metrics.causal_strength == pytest.approx(1.0, abs=0.02)

    def test_lan_faster_than_wan(self):
        wan = run_analytical(ExperimentCell(protocol="iss-pbft", n=16, environment="wan", duration=60.0))
        lan = run_analytical(ExperimentCell(protocol="iss-pbft", n=16, environment="lan", duration=60.0))
        assert lan.average_latency_s < wan.average_latency_s
        assert lan.throughput_tps > wan.throughput_tps


class TestRunner:
    def test_run_cell_analytical(self):
        cell = ExperimentCell(protocol="iss-pbft", n=16, duration=30.0, engine="analytical")
        metrics = run_cell(cell)
        assert metrics.protocol == "iss-pbft"
        assert metrics.throughput_tps > 0

    def test_run_cell_des_small(self):
        cell = ExperimentCell(
            protocol="ladon-pbft", n=4, duration=4.0, batch_size=32,
            total_block_rate=8.0, environment="lan", engine="des",
        )
        metrics = run_cell(cell)
        assert metrics.confirmed_blocks > 0


class TestExperimentFunctions:
    def test_fig2a_analytical_shapes(self):
        data = experiments.fig2a_analytical(rounds=20)
        assert len(data["predetermined_queued"]) == 20
        assert data["predetermined_queued"][-1] > data["dynamic_queued"][-1] * 0  # both defined
        assert data["throughput_ratio"] == pytest.approx(0.1)

    def test_appendix_a_rows(self):
        rows = experiments.appendix_a_complexity(replica_counts=(4, 16))
        assert len(rows) == 6
        assert {row["protocol"] for row in rows} == {"pbft", "ladon-pbft", "ladon-opt"}

    def test_fig5_scaling_small_grid(self):
        rows = experiments.fig5_scaling(
            replica_counts=(8,),
            protocols=("ladon-pbft", "iss-pbft"),
            environments=("wan",),
            straggler_counts=(0, 1),
            duration=60.0,
        )
        assert len(rows) == 4
        with_straggler = {r["protocol"]: r for r in rows if r["stragglers"] == 1}
        assert with_straggler["ladon-pbft"]["throughput_tps"] > with_straggler["iss-pbft"]["throughput_tps"]


class TestReport:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.001}]
        text = format_table(rows, columns=["a", "b"], title="demo")
        assert "demo" in text
        assert "10" in text

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], columns=["a"])

    def test_format_series(self):
        text = format_series([(0.0, 1.0), (1.0, 2.0)], title="tps")
        assert "tps" in text
        assert "#" in text
