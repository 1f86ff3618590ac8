"""One run of one cell, in its own interpreter.

``python -m perfbench.child '<json spec>'`` builds the cell through the
public calls, runs it, and prints one JSON record as the last line of its
standard output.  A fresh interpreter per run makes ``peak_rss_mb`` that
run's own high-water mark and keeps heap state from leaking between
repeats.  The parent (:mod:`perfbench.run`) owns process lifetime: it puts
the child in its own session, so a timeout kills the child *and* any shard
workers it forked.

Spec keys: ``cell`` (ExperimentCell keyword arguments, seed included),
``spawned_at`` (``time.time()`` just before the parent started us),
``run_id``, ``traced`` (profile the run phase), ``build_only`` (stop after
``build_system``: a set-up sample).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.trace import SpanRecorder, attribute


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _weighted_percentile(pairs: List[Tuple[float, int]], percentile: float) -> float:
    """Smallest sample whose cumulative weight reaches ``percentile`` percent."""
    threshold = sum(weight for _s, weight in pairs) * percentile / 100.0
    running = 0.0
    for sample, weight in pairs:
        running += weight
        if running >= threshold:
            return sample
    return pairs[-1][0]


def _digests(confirmed: Sequence[Any]) -> Tuple[str, str]:
    """(ordered log digest, schedule-independent block-set digest)."""
    log = hashlib.sha256()
    for c in confirmed:
        block = c.block
        log.update(
            repr((c.sn, block.instance, block.round, block.rank, block.payload_digest)).encode()
        )
    members = sorted((c.block.instance, c.block.round, c.block.payload_digest) for c in confirmed)
    return log.hexdigest(), hashlib.sha256(repr(members).encode()).hexdigest()


def run(spec: Dict[str, Any]) -> Dict[str, Any]:
    booted = time.time() - spec["spawned_at"]  # interpreter start + imports so far
    origin = time.perf_counter() - booted
    spans = SpanRecorder(spec["run_id"])
    with spans.span("child", start=origin):
        return _run(spec, spans, origin)


def _run(spec: Dict[str, Any], spans: SpanRecorder, origin: float) -> Dict[str, Any]:
    with spans.span("setup", start=origin):
        from repro.bench.config import ExperimentCell
        from repro.metrics.auditor import audit_system
        from repro.protocols.registry import build_system

        config = ExperimentCell(**spec["cell"]).to_system_config()
        with spans.span("protocols.build"):
            system = build_system(config)
    record: Dict[str, Any] = {"setup_s": spans.duration("setup"), "spans": spans.spans}
    if spec.get("build_only"):
        return record

    sharded = config.runtime == "sharded"
    profiler = None
    ipc_bytes = [0]
    if spec.get("traced"):
        import cProfile

        profiler = cProfile.Profile()
        if sharded:
            _count_hub_frames(ipc_bytes)
            # Forked shard workers inherit an enabled profiler and would run
            # ~3x slower; only the hub is traced.
            os.register_at_fork(after_in_child=profiler.disable)

    profiled = profiler if profiler is not None else contextlib.nullcontext()
    self_cpu, child_cpu = _cpu_seconds(resource.RUSAGE_SELF), _cpu_seconds(resource.RUSAGE_CHILDREN)
    with spans.span("wall"):
        if sharded:
            # Workers are built inside run(), so their construction is part
            # of wall_s here, not of setup_s.
            with profiled:
                result = system.run()
        else:
            with spans.span("protocols.start"):
                system.start()
            with spans.span("runtime.run"), profiled:
                system.runtime.run(until=config.duration)
            with spans.span("protocols.collect"):
                result = system.collect_result()
    hub_cpu = _cpu_seconds(resource.RUSAGE_SELF) - self_cpu
    worker_cpu = _cpu_seconds(resource.RUSAGE_CHILDREN) - child_cpu  # workers are reaped by now
    wall_s = spans.duration("wall")
    if sharded:
        peak_rss = system.runtime.total_peak_rss_bytes()
    else:
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    confirmed = result.confirmed
    latencies = sorted(
        (c.confirmed_at - (c.block.batch_submitted_at or c.block.proposed_at), c.block.tx_count)
        for c in confirmed
    )
    log_digest, set_digest = _digests(confirmed)
    record.update(
        wall_s=wall_s,
        peak_rss_mb=peak_rss / 1e6,
        sim_tps=result.metrics.throughput_tps,
        digest=log_digest,
        set_digest=set_digest,
        confirmed_blocks=len(confirmed),
        safety_ok=bool(result.audit is not None and result.audit.safety_ok),
    )
    if latencies:
        record["sim_latency_p50_s"] = _weighted_percentile(latencies, 50)
        record["sim_latency_p90_s"] = _weighted_percentile(latencies, 90)

    stats = result.network_stats
    events = system.runtime.events_processed
    partial = result.metrics.partially_committed_blocks
    layers: Dict[str, Any] = {
        "sim.events": events,
        "sim.msgs_sent": stats.messages_sent,
        "sim.msgs_delivered": stats.messages_delivered,
        "sim.msgs_dropped": stats.messages_dropped,
        "sim.bytes_sent": stats.bytes_sent,
        "sim.msgs_per_block": stats.messages_sent / partial if partial else 0.0,
        "consensus.partial_commits": partial,
        "consensus.view_changes": len(result.view_change_times),
        "core.confirmed_blocks": len(confirmed),
        "core.confirm_ratio": len(confirmed) / partial if partial else 0.0,
        "crypto.ops": sum(result.resources.total_crypto_ops().values()),
        "metrics.latency_samples": len(latencies),
        "protocols.build_s": spans.duration("protocols.build"),
        "runtime.cpu_s": _cpu_seconds(resource.RUSAGE_SELF) + _cpu_seconds(resource.RUSAGE_CHILDREN),
    }
    if sharded:
        sync = system.runtime.sync
        per_shard = [r.events_processed for r in system.runtime.collect_results()]
        layers.update({
            "sim.events_per_s": events / wall_s,
            "shard.sync_rounds": sync.rounds,
            "shard.drain_rounds": sync.drain_rounds,
            "shard.frames_routed": sync.frames_routed,
            "shard.lookahead_ms": system.lookahead.seconds * 1e3,
            "shard.events_imbalance": max(per_shard) * len(per_shard) / sum(per_shard),
            "shard.worker_cpu_s": worker_cpu,
            "shard.hub_cpu_s": hub_cpu,
            # one minus this is the share of worker time spent at barriers
            "shard.busy_share": worker_cpu / (config.shards * wall_s),
        })
        if sync.min_margin != float("inf"):
            layers["shard.min_margin_ms"] = sync.min_margin * 1e3
    else:
        with spans.span("metrics.audit"):  # a second audit, timed on its own
            audit_system(system)
        run_s = spans.duration("runtime.run")
        layers.update({
            "protocols.start_s": spans.duration("protocols.start"),
            "runtime.run_s": run_s,
            "protocols.collect_s": spans.duration("protocols.collect"),
            "metrics.audit_s": spans.duration("metrics.audit"),
            "sim.events_per_s": events / run_s,
            "core.pending_at_end": system.replicas[system.observer_id()].orderer.pending_count,
        })
    if profiler is not None:
        layers.update(attribute(profiler.getstats()))
        if sharded:
            layers["shard.ipc_bytes"] = ipc_bytes[0]
    record["layers"] = layers
    return record


def _count_hub_frames(counter: List[int]) -> None:
    """Count the bytes the hub encodes and decodes (traced pass only).

    The hub looks ``encode_frame``/``decode_frame`` up in its own module
    globals; shard workers use the bindings of ``repro.shard.worker`` and
    stay untouched.
    """
    import repro.runtime.sharded as hub

    encode, decode = hub.encode_frame, hub.decode_frame

    def counting_encode(payload: Any) -> bytes:
        data = encode(payload)
        counter[0] += len(data)
        return data

    def counting_decode(data: bytes) -> Any:
        counter[0] += len(data)
        return decode(data)

    hub.encode_frame, hub.decode_frame = counting_encode, counting_decode


def main(argv: Sequence[str]) -> int:
    record = run(json.loads(argv[0]))
    sys.stdout.write("\n" + json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
