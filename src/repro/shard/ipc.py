"""Binary framing for the cross-shard IPC channel.

Every payload crossing a process boundary goes through this module — the
single place where pickling is allowed (enforced by the SHARD-002
staticcheck rule).  Two payload kinds exist:

* **message batches** — lists of ``(arrivals, sender, receivers, message)``
  records, one per fan-out and destination shard, flushed from a shard's
  outbox at a barrier.  Messages are frozen-slots flyweights, so one batch
  pickles into a compact frame and pickle's memo table dedupes payload
  objects (a proposal's :class:`~repro.workload.transactions.Batch` is
  serialized once per frame).  The hub routes these frames as **opaque
  bytes** — only the destination shard unpickles them.
* **control frames** — the tuples of the hub <-> worker barrier protocol
  (:mod:`repro.shard.worker`).

Framing itself (length prefix) is ``multiprocessing.Connection``'s
``send_bytes``/``recv_bytes``; this module owns the byte payloads.
"""

from __future__ import annotations

import pickle
from typing import Any, List, Tuple

#: one fan-out's deliveries to one shard: (arrivals, sender, receivers, message)
RemoteRecord = Tuple[List[float], int, List[int], Any]

#: the highest protocol both 3.10 and 3.12 share, and the fastest
_PROTOCOL = pickle.HIGHEST_PROTOCOL


class ShardSyncError(RuntimeError):
    """A violation of the conservative-synchronization contract.

    Raised when a remote message arrives timestamped before the receiving
    shard's executed horizon — by construction impossible while the
    lookahead derivation is sound, so this surfacing means a latency model
    broke its ``min_delay`` promise (or the barrier math regressed).
    """


def derive_shard_seed(seed: int, shard_id: int) -> int:
    """Stable per-shard RNG seed.

    Each worker's simulator gets its own stream so shard-local jitter draws
    are independent (identical streams would correlate link jitter across
    shards).  The derivation is a fixed affine map — no hashing randomness —
    so a (seed, shard count) pair always reproduces bit-identically.
    """
    return seed + 1_000_003 * (shard_id + 1)


def encode_batch(records: List[RemoteRecord]) -> bytes:
    """Frame one outbox batch for the wire."""
    return pickle.dumps(records, _PROTOCOL)


def decode_batch(data: bytes) -> List[RemoteRecord]:
    """Decode a frame produced by :func:`encode_batch`."""
    return pickle.loads(data)


def encode_frame(payload: Any) -> bytes:
    """Frame a control payload (hub <-> worker protocol tuples)."""
    return pickle.dumps(payload, _PROTOCOL)


def decode_frame(data: bytes) -> Any:
    """Decode a control frame."""
    return pickle.loads(data)


def check_flyweight(message: Any) -> bool:
    """Whether ``message`` honours the IPC-boundary type contract.

    The contract (SHARD-002): everything crossing the shard boundary is a
    frozen dataclass with ``__slots__`` (the flyweight shape: immutable, no
    ``__dict__``, cheap to pickle).  Used by tests and debug assertions —
    never on the per-message hot path.
    """
    cls = type(message)
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        return False
    # slots=True all the way down means instances carry no __dict__.
    return not hasattr(message, "__dict__")


def validate_entries(records: List[RemoteRecord]) -> None:
    """Assert every record's message is a frozen-slots flyweight (test aid)."""
    for arrivals, sender, receivers, message in records:
        if not check_flyweight(message):
            raise TypeError(
                f"non-flyweight payload {type(message).__name__!r} on the "
                f"IPC boundary ({sender}->{receivers} @ {arrivals}): messages "
                "crossing shards must be frozen dataclasses with __slots__"
            )
