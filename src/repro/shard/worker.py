"""The shard worker: one process, one DES engine, one slice of the replicas.

Each worker receives the *same* cell and resolved runtime pieces
(:class:`~repro.bench.config.ResolvedCell`) the hub holds, but constructs
only its shard's replicas on a
:class:`~repro.shard.transport.ShardNetwork`, then obeys the hub's barrier
protocol over a duplex pipe.  All frames are binary
(``send_bytes``/``recv_bytes`` with payloads encoded by
:mod:`repro.shard.ipc`); the control vocabulary is:

========== ======================================================== =========
frame      payload                                                  direction
========== ======================================================== =========
``run``    ``(target, inclusive, in_frames)`` — deliver the routed  hub->wkr
           cross-shard record frames, then run the window up to
           ``target`` (exclusive unless ``inclusive``, which only the
           final window and its drain rounds use)
``flush``  ``(out_frames, min_outgoing, next_event, events)`` —     wkr->hub
           the window's outbox frames per destination shard, the
           earliest outgoing arrival, the next live local event, and the
           cumulative event count
``collect`` request the :class:`ShardResult`                        hub->wkr
``result`` the pickled :class:`ShardResult`                         wkr->hub
``stop``   exit the worker loop                                     hub->wkr
``error``  a formatted traceback (any phase)                        wkr->hub
========== ======================================================== =========

The worker never reads the wall clock and draws randomness only from its
seeded simulator (seed derived per shard by
:func:`repro.shard.ipc.derive_shard_seed`), so a (seed, shard count) pair
reproduces bit-identically.  The cyclic collector stays off across the whole
barrier loop: between windows the worker decodes among millions of objects.
"""

from __future__ import annotations

import gc
import math
import resource
import sys
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.shard.ipc import decode_batch, decode_frame, derive_shard_seed, encode_frame
from repro.shard.partition import ShardPlan
from repro.shard.transport import ShardNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.protocols.result import RunSnapshot

_INFINITY = float("inf")


@dataclass
class ShardResult:
    """Everything the hub needs from one finished worker."""

    shard_id: int
    events_processed: int
    peak_rss_bytes: int
    #: the shard's replicas, as :meth:`MultiBFTSystem.snapshot` reads them
    snapshot: "RunSnapshot"
    #: observed lookahead-safety margin: min(arrival - horizon) over every
    #: remote delivery this shard accepted (inf if none arrived)
    min_margin: float = _INFINITY


def _worker_peak_rss_bytes() -> int:
    """This worker's own peak RSS in bytes (ru_maxrss is KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return rss
    return rss * 1024


def _build_system(config, resolved, plan: ShardPlan, shard_id: int):
    """Construct this shard's partial system on a ShardWorkerRuntime."""
    from repro.protocols.base import MultiBFTSystem
    from repro.protocols.registry import replica_class
    from repro.runtime.sharded import ShardWorkerRuntime

    runtime = ShardWorkerRuntime(
        seed=derive_shard_seed(config.seed, shard_id),
        latency=resolved.scenario.build_latency(config.n),
        config=resolved.scenario.network_config(config.n),
        plan=plan,
        shard_id=shard_id,
    )
    system = MultiBFTSystem(
        config,
        replica_class(config.protocol),
        resolved,
        runtime=runtime,
        local_replicas=plan.members(shard_id),
    )
    return system, runtime


def worker_entry(conn, config, resolved, plan: ShardPlan, shard_id: int) -> None:
    """Process entry point: build the shard, then serve the barrier loop."""
    gc_was_enabled = gc.isenabled()
    try:
        system, runtime = _build_system(config, resolved, plan, shard_id)
        network: ShardNetwork = runtime.network
        simulator = runtime.simulator
        system.start()
        gc.disable()
        while True:
            frame = decode_frame(conn.recv_bytes())
            kind = frame[0]
            if kind == "run":
                _, target, inclusive, in_frames = frame
                for data in in_frames:
                    network.enqueue_remote(decode_batch(data))
                until = target if inclusive else math.nextafter(target, 0.0)
                simulator.run(until=until)
                network.set_horizon(target)
                out_frames, min_outgoing = network.drain_outboxes()
                # peek_time() discards cancelled timers, so the hub's
                # idle-skip never targets a time at which nothing fires.
                next_event = simulator.queue.peek_time()
                if next_event is None:
                    next_event = _INFINITY
                conn.send_bytes(
                    encode_frame(
                        (
                            "flush",
                            out_frames,
                            min_outgoing,
                            next_event,
                            simulator.events_processed,
                        )
                    )
                )
            elif kind == "collect":
                result = ShardResult(
                    shard_id=shard_id,
                    events_processed=simulator.events_processed,
                    peak_rss_bytes=_worker_peak_rss_bytes(),
                    snapshot=system.snapshot(),
                    min_margin=network.min_margin,
                )
                conn.send_bytes(encode_frame(("result", result)))
            elif kind == "stop":
                return
            else:  # pragma: no cover - protocol guard
                raise ValueError(f"unknown hub frame {kind!r}")
    except Exception:  # pragma: no cover - exercised via hub error handling
        try:
            conn.send_bytes(encode_frame(("error", traceback.format_exc())))
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        if gc_was_enabled:
            gc.enable()
