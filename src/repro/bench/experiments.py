"""One function per table/figure of the paper's evaluation.

Every function returns plain dictionaries / lists so that the benchmark
drivers in ``benchmarks/`` can both assert on the reproduced *shape* (who
wins, by roughly what factor) and print the regenerated rows next to the
paper's numbers for EXPERIMENTS.md.

All grid-shaped experiments run through :mod:`repro.bench.sweep`: each
function expands its parameter grid into cells and hands them to a
:class:`~repro.bench.sweep.SweepRunner`, so every figure transparently gains
parallel workers and disk caching (``python -m repro.bench <experiment>
--workers N``).  Passing no runner keeps the historical behaviour — an
in-process sequential sweep producing exactly the same rows.

Default parameters are chosen so the whole suite regenerates in minutes on a
laptop: the 8–32 replica cells run on the message-level simulator, the
64–128 replica sweeps on the block-level analytical engine (see
:mod:`repro.bench.analytical` for the modelling assumptions).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.complexity import compare_protocol_complexity
from repro.analysis.straggler_model import (
    StragglerModelConfig,
    dynamic_ordering_backlog,
    predetermined_ordering_backlog,
    throughput_ratio,
)
from repro.bench.config import ExperimentCell
from repro.bench.sweep import SweepRunner, expand_grid
from repro.metrics.collector import RunMetrics
from repro.sim.faults import CrashSpec, FaultConfig


PAPER_PROTOCOLS: Tuple[str, ...] = ("ladon-pbft", "iss-pbft", "rcc", "mir", "dqbft")


def _metrics_dict(metrics: RunMetrics) -> Dict[str, float]:
    return metrics.as_dict()


def _runner(sweep: Optional[SweepRunner]) -> SweepRunner:
    """The sweep runner to use: caller-supplied or a sequential default."""
    return sweep if sweep is not None else SweepRunner()


def instances_led_by(replica: int, num_instances: int, n: int, view: int = 0) -> List[int]:
    """Consensus instances whose view-``view`` leader is ``replica``.

    Instance ``i``'s leader in view ``v`` is ``(i + v) % n`` (one instance
    per replica in the paper's deployment, rotating on view changes).
    Experiment code must use this mapping rather than equating instance ids
    with replica ids — they only coincide for view 0 with ``m == n``.
    """
    return [i for i in range(num_instances) if (i + view) % n == replica]


# --------------------------------------------------------------------- Fig 2
def fig2a_analytical(
    num_instances: int = 16, straggler_period: int = 10, rounds: int = 100
) -> Dict[str, object]:
    """Fig. 2a: analytical backlog/delay growth with one straggler."""
    config = StragglerModelConfig(
        num_instances=num_instances, straggler_period=straggler_period, rounds=rounds
    )
    predetermined = predetermined_ordering_backlog(config)
    dynamic = dynamic_ordering_backlog(config)
    return {
        "config": config,
        "predetermined_queued": predetermined.queued_blocks,
        "predetermined_delay": predetermined.ordering_delay,
        "dynamic_queued": dynamic.queued_blocks,
        "dynamic_delay": dynamic.ordering_delay,
        "throughput_ratio": throughput_ratio(config),
    }


def fig2b_iss_stragglers(
    straggler_counts: Sequence[int] = (0, 1, 3),
    n: int = 16,
    duration: float = 40.0,
    batch_size: int = 1024,
    seed: int = 0,
    sweep: Optional[SweepRunner] = None,
) -> Dict[int, Dict[str, float]]:
    """Fig. 2b: ISS-PBFT throughput/latency with 0, 1, 3 stragglers (WAN)."""
    cells = expand_grid(
        {"stragglers": straggler_counts},
        defaults=dict(
            protocol="iss-pbft",
            n=n,
            environment="wan",
            duration=duration,
            batch_size=batch_size,
            engine="des",
            seed=seed,
        ),
    )
    rows = _runner(sweep).run(cells)
    return {cell.stragglers: row for cell, row in zip(cells, rows)}


# --------------------------------------------------------------------- Fig 5
def fig5_scaling(
    replica_counts: Sequence[int] = (8, 16, 32, 64, 128),
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    environments: Sequence[str] = ("wan", "lan"),
    straggler_counts: Sequence[int] = (0, 1),
    duration: float = 300.0,
    seed: int = 0,
    sweep: Optional[SweepRunner] = None,
) -> List[Dict[str, float]]:
    """Fig. 5 (a)-(h): throughput and latency vs replica count, WAN and LAN.

    Uses the analytical engine across the whole replica range so the full
    5-protocol x 5-size x 2-environment x 2-straggler grid regenerates in
    seconds.
    """
    cells = expand_grid(
        {
            "environment": environments,
            "stragglers": straggler_counts,
            "n": replica_counts,
            "protocol": protocols,
        },
        defaults=dict(duration=duration, engine="analytical", seed=seed),
    )
    rows = _runner(sweep).run(cells)
    for cell, row in zip(cells, rows):
        row["environment"] = cell.environment
    return rows


# --------------------------------------------------------------------- Fig 6
def fig6_straggler_count(
    straggler_counts: Sequence[int] = (1, 2, 3, 4, 5),
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    n: int = 16,
    duration: float = 120.0,
    seed: int = 0,
    sweep: Optional[SweepRunner] = None,
) -> List[Dict[str, float]]:
    """Fig. 6: throughput/latency vs number of stragglers (16 replicas, WAN)."""
    cells = expand_grid(
        {"stragglers": straggler_counts, "protocol": protocols},
        defaults=dict(
            n=n, environment="wan", duration=duration, engine="analytical", seed=seed
        ),
    )
    return _runner(sweep).run(cells)


# --------------------------------------------------------------------- Fig 7
def fig7_byzantine_stragglers(
    straggler_counts: Sequence[int] = (0, 1, 2, 3, 4, 5),
    n: int = 16,
    duration: float = 120.0,
    seed: int = 0,
    sweep: Optional[SweepRunner] = None,
) -> Dict[str, List[Dict[str, float]]]:
    """Fig. 7: Ladon under honest vs Byzantine stragglers (16 replicas, WAN)."""
    cells = expand_grid(
        {"stragglers": straggler_counts, "byzantine": (False, True)},
        defaults=dict(
            protocol="ladon-pbft",
            n=n,
            environment="wan",
            duration=duration,
            engine="analytical",
            seed=seed,
        ),
    )
    rows = _runner(sweep).run(cells)
    honest: List[Dict[str, float]] = []
    byzantine: List[Dict[str, float]] = []
    for cell, row in zip(cells, rows):
        (byzantine if cell.byzantine else honest).append(row)
    return {"honest": honest, "byzantine": byzantine}


# --------------------------------------------------------------------- Fig 8
def fig8_crash_recovery(
    n: int = 16,
    duration: float = 60.0,
    crash_at: float = 11.0,
    view_change_timeout: float = 10.0,
    batch_size: int = 1024,
    seed: int = 0,
) -> Dict[str, object]:
    """Fig. 8: Ladon throughput over time with a crash fault at t=11 s.

    The crashed replica leads one instance; the view-change timeout is 10 s,
    so the instance recovers (and throughput with it) about 10 s later.

    This is the one experiment that needs the full :class:`SystemResult`
    timeline (throughput series, view-change log), not just summary metrics,
    so it runs its single cell directly rather than through the sweep cache.
    """
    crashed_replica = n - 1  # crash a leader other than the observer
    cell = ExperimentCell(
        protocol="ladon-pbft",
        n=n,
        environment="wan",
        duration=duration,
        batch_size=batch_size,
        engine="des",
        seed=seed,
        propose_timeout=view_change_timeout,
    )
    from repro.protocols.registry import build_system

    system = build_system(
        cell, faults=FaultConfig(crashes=(CrashSpec(replica=crashed_replica, at=crash_at),))
    )
    result = system.run()
    # The view-change log records *instance* ids; map the crashed replica to
    # the instance(s) it led so we report when leadership actually rotated
    # away from the crashed node (instance id == replica id only holds for
    # view 0 with one instance per replica).
    crashed_instances = set(instances_led_by(crashed_replica, n, n))
    view_change_completed = [
        t for (t, instance, view) in result.view_change_times if instance in crashed_instances
    ]
    return {
        "throughput_series": result.throughput_series,
        "crash_time": crash_at,
        "view_change_completed_at": min(view_change_completed) if view_change_completed else None,
        "epoch_advancements": result.epoch_advancements,
        "metrics": _metrics_dict(result.metrics),
    }


# ------------------------------------------------------------------- Table 1
def table1_resources(
    n: int = 32,
    duration: float = 20.0,
    batch_size: int = 1024,
    seed: int = 0,
    sweep: Optional[SweepRunner] = None,
) -> List[Dict[str, float]]:
    """Table 1: CPU and bandwidth usage of Ladon and ISS (0 and 1 straggler)."""
    cells = expand_grid(
        {
            "protocol": ("iss-pbft", "ladon-pbft"),
            "environment": ("wan", "lan"),
            "stragglers": (0, 1),
        },
        defaults=dict(
            n=n, duration=duration, batch_size=batch_size, engine="des", seed=seed
        ),
    )
    rows = _runner(sweep).run(cells)
    for cell, row in zip(cells, rows):
        row["environment"] = cell.environment
        row["block_rate"] = cell.block_rate()
    return rows


# ------------------------------------------------------------------- Table 2
def table2_causality(
    n: int = 16,
    straggler_counts: Sequence[int] = (1, 3, 5),
    proposal_rates: Sequence[float] = (0.5, 0.1),
    protocols: Sequence[str] = PAPER_PROTOCOLS,
    duration: float = 30.0,
    batch_size: int = 512,
    seed: int = 0,
    sweep: Optional[SweepRunner] = None,
) -> Dict[str, List[Dict[str, float]]]:
    """Table 2: causal strength vs straggler count and straggler proposal rate.

    The straggler-count sweep uses the paper's fixed straggler proposal rate
    of 0.1 blocks/s; the rate sweep uses one straggler.  Rates are mapped to
    the slowdown factor k of the per-leader rate (1 block/s at 16 replicas
    with a 16 blocks/s total rate).
    """
    runner = _runner(sweep)
    count_cells = expand_grid(
        {"stragglers": straggler_counts, "protocol": protocols},
        defaults=dict(
            n=n,
            straggler_slowdown=10.0,  # 0.1 blocks/s against a 1 block/s baseline
            environment="wan",
            duration=duration,
            batch_size=batch_size,
            engine="des",
            seed=seed,
        ),
    )
    by_count = runner.run(count_cells)

    per_leader_rate = 16.0 / n
    rate_cells: List[ExperimentCell] = []
    for rate in proposal_rates:
        slowdown = max(1.0, per_leader_rate / rate)
        rate_cells.extend(
            expand_grid(
                {"protocol": protocols},
                defaults=dict(
                    n=n,
                    stragglers=1,
                    straggler_slowdown=slowdown,
                    environment="wan",
                    duration=duration,
                    batch_size=batch_size,
                    engine="des",
                    seed=seed,
                ),
            )
        )
    by_rate = runner.run(rate_cells)
    rates_per_cell = [rate for rate in proposal_rates for _ in protocols]
    for rate, row in zip(rates_per_cell, by_rate):
        row["proposal_rate"] = rate
    return {"by_straggler_count": by_count, "by_proposal_rate": by_rate}


# -------------------------------------------------------------------- Fig 10
def fig10_hotstuff(
    replica_counts: Sequence[int] = (8, 16, 32, 64, 128),
    straggler_counts: Sequence[int] = (0, 1),
    duration: float = 1200.0,
    seed: int = 0,
    sweep: Optional[SweepRunner] = None,
) -> List[Dict[str, float]]:
    """Fig. 10 (Appendix D): Ladon-HotStuff vs ISS-HotStuff, WAN."""
    cells = expand_grid(
        {
            "stragglers": straggler_counts,
            "n": replica_counts,
            "protocol": ("ladon-hotstuff", "iss-hotstuff"),
        },
        defaults=dict(environment="wan", duration=duration, engine="analytical", seed=seed),
    )
    return _runner(sweep).run(cells)


# --------------------------------------------------------------- Appendix A
def appendix_a_complexity(replica_counts: Sequence[int] = (4, 16, 64, 128)) -> List[Dict[str, int]]:
    """Appendix A: message/authenticator complexity of PBFT vs Ladon variants."""
    rows: List[Dict[str, int]] = []
    for n in replica_counts:
        for name, profile in compare_protocol_complexity(n).items():
            rows.append(
                {
                    "protocol": name,
                    "n": n,
                    "pre_prepare_messages": profile.pre_prepare_messages,
                    "prepare_messages": profile.prepare_messages,
                    "commit_messages": profile.commit_messages,
                    "rank_messages": profile.rank_messages,
                    "pre_prepare_units": profile.pre_prepare_units,
                    "backup_verifications_pre_prepare": profile.backup_verifications_pre_prepare,
                    "total_messages": profile.total_messages,
                }
            )
    return rows
