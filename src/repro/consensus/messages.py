"""Protocol message types.

Message wire sizes follow the paper's configuration: 500-byte transactions,
64-byte signatures, 32-byte digests, small fixed headers.  Sizes feed the
bandwidth model and Table 1; they do not affect protocol logic.

A message's size travels on the message: the transport and the replica's
usage accounting read ``message.size_bytes``, and no send path takes a size
argument.  Messages are *flyweights*: they are frozen, ``__slots__``-backed
(via ``dataclass(slots=True)``), and their size is known once per object.
A class whose size reads no field (``Prepare``, ``Commit``, ``ViewChange``,
``CheckpointMessage``) carries it as a class constant, so building one runs
no size code.  A variable-size class declares ``size_bytes`` as a
:func:`~repro.core.frozen.derived` field over its ``_wire_size``, which
``fast_init`` stores **once at construction**.  The old property design
re-summed ``rank_reports`` on every access, which on a multicast meant one
O(reports) scan per receiver — O(n²) per proposal.  Batches ride along by
reference (``txs`` is the same tuple object at every hop), so a message
fan-out never copies payload data.

Every message is built through :func:`repro.core.frozen.fast_init`, the
one constructor for hot frozen values (blocks, rank certificates and
reports, and confirmations use it too).  The dataclass-generated
``__init__`` of a frozen class stores each field through
``object.__setattr__``; on CPython 3.11 that made a ``Prepare`` cost
2.2–2.7 µs and an 11-field ``Block`` 2.3–3.0 µs, against 0.4–0.6 µs for
the same ``Block`` unfrozen.  ``fast_init`` stores through each slot's
descriptor instead: 1.4–1.7 µs per ``Prepare`` and 1.05–1.1 µs per
``Block`` (best of 5 runs of 200 k constructions, two rounds).  The
classes stay frozen, so assignment after construction still raises.  Hot
call sites build ``HotStuffVote`` positionally: keywords cost CPython a
dict per call, 0.5–1.0 µs more.
"""

# staticcheck: hot-path
from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple

from repro.core.frozen import derived, fast_init
from repro.core.rank import RankCertificate, RankReport


SIGNATURE_BYTES = 64
DIGEST_BYTES = 32
HEADER_BYTES = 24  # type, view, round, instance, epoch, sender
TX_PAYLOAD_BYTES = 500


def batch_size_bytes(tx_count: int) -> int:
    """Wire size of a transaction batch."""
    return tx_count * TX_PAYLOAD_BYTES


@fast_init
@dataclass(frozen=True, slots=True)
class InstanceMessage:
    """Base class: every instance message names its view/round/instance.

    ``size_bytes`` is the wire size: a class constant where it reads no
    field, else a ``derived("_wire_size")`` field (see module docstring).
    """

    sender: int
    instance: int
    view: int
    round: int
    size_bytes: ClassVar[int] = HEADER_BYTES + SIGNATURE_BYTES


# --------------------------------------------------------------------- PBFT
@fast_init
@dataclass(frozen=True, slots=True)
class PrePrepare(InstanceMessage):
    """Leader's proposal.  Carries the batch, its digest, the assigned rank,
    the winning rank certificate (QC) and the rank report set proving the
    rank calculation (Algorithm 2, line 8).  For vanilla PBFT the rank fields
    are unused (rank equals the round, empty report set)."""

    digest: str = ""
    tx_count: int = 0
    txs: Tuple = ()
    rank: int = 0
    epoch: int = 0
    rank_certificate: Optional[RankCertificate] = None
    rank_reports: Tuple[RankReport, ...] = ()
    aggregated_rank_proof_bytes: int = 0
    proposed_at: float = 0.0
    batch_submitted_at: float = 0.0
    #: a new leader re-proposing a round that was prepared (but not
    #: committed) in the previous view; digest and rank are carried over
    #: from the old view's prepared certificate instead of being recomputed
    reproposal: bool = False
    size_bytes: int = derived("_wire_size")

    def _wire_size(self) -> int:
        base = HEADER_BYTES + SIGNATURE_BYTES + DIGEST_BYTES + batch_size_bytes(self.tx_count)
        if self.aggregated_rank_proof_bytes:
            rank_bytes = self.aggregated_rank_proof_bytes
        else:
            rank_bytes = sum(report.size_bytes for report in self.rank_reports)
        cert_bytes = self.rank_certificate.size_bytes if self.rank_certificate else 0
        return base + rank_bytes + cert_bytes


@fast_init
@dataclass(frozen=True, slots=True)
class Prepare(InstanceMessage):
    digest: str = ""
    rank: int = 0
    size_bytes: ClassVar[int] = HEADER_BYTES + SIGNATURE_BYTES + DIGEST_BYTES


@fast_init
@dataclass(frozen=True, slots=True)
class Commit(InstanceMessage):
    digest: str = ""
    rank: int = 0
    size_bytes: ClassVar[int] = HEADER_BYTES + SIGNATURE_BYTES + DIGEST_BYTES


@fast_init
@dataclass(frozen=True, slots=True)
class RankMessage(InstanceMessage):
    """A backup's report of its current highest certified rank to the leader
    (Algorithm 2, lines 27-28).  ``key_index`` is only used by Ladon-opt,
    where the rank difference is encoded in the signing key: the reported
    rank is then ``rank + key_index``."""

    rank: int = 0
    certificate: Optional[RankCertificate] = None
    key_index: Optional[int] = None
    size_bytes: int = derived("_wire_size")

    def _wire_size(self) -> int:
        cert = self.certificate.size_bytes if self.certificate else 0
        return HEADER_BYTES + SIGNATURE_BYTES + 8 + cert

    def to_report(self) -> RankReport:
        rank = self.rank if self.key_index is None else self.rank + self.key_index
        return RankReport(
            replica=self.sender,
            rank=rank,
            view=self.view,
            round=self.round,
            instance=self.instance,
            certificate=self.certificate or RankCertificate(rank=rank),
        )


# -------------------------------------------------------------- view change
@fast_init
@dataclass(frozen=True, slots=True)
class ViewChange(InstanceMessage):
    """Sent to the prospective leader of view ``view`` when a timer expires."""

    last_committed_round: int = 0
    highest_rank: int = 0
    size_bytes: ClassVar[int] = HEADER_BYTES + SIGNATURE_BYTES + 16


@fast_init
@dataclass(frozen=True, slots=True)
class NewView(InstanceMessage):
    """New leader's announcement, justified by 2f+1 view-change messages."""

    view_change_count: int = 0
    resume_round: int = 1
    size_bytes: int = derived("_wire_size")

    def _wire_size(self) -> int:
        return HEADER_BYTES + SIGNATURE_BYTES + 16 + self.view_change_count * 32


# --------------------------------------------------------------- checkpoint
@fast_init
@dataclass(frozen=True, slots=True)
class CheckpointMessage(InstanceMessage):
    """Broadcast at the end of an epoch; 2f+1 form a stable checkpoint."""

    epoch: int = 0
    state_digest: str = ""
    size_bytes: ClassVar[int] = HEADER_BYTES + SIGNATURE_BYTES + DIGEST_BYTES


# ----------------------------------------------------------------- HotStuff
@fast_init
@dataclass(frozen=True, slots=True)
class HotStuffProposal(InstanceMessage):
    """A chained-HotStuff generic message: a new node extending ``parent_round``
    justified by a QC, plus (in Ladon-HotStuff) the leader's highest rank and
    its certificate."""

    digest: str = ""
    tx_count: int = 0
    txs: Tuple = ()
    rank: int = 0
    epoch: int = 0
    parent_round: int = 0
    parent_digest: str = ""
    justify_votes: int = 0
    rank_m: int = 0
    rank_certificate: Optional[RankCertificate] = None
    proposed_at: float = 0.0
    batch_submitted_at: float = 0.0
    size_bytes: int = derived("_wire_size")

    def _wire_size(self) -> int:
        cert = self.rank_certificate.size_bytes if self.rank_certificate else 0
        return (
            HEADER_BYTES
            + SIGNATURE_BYTES
            + 2 * DIGEST_BYTES
            + batch_size_bytes(self.tx_count)
            + 96  # parent QC (aggregate)
            + cert
        )


@fast_init
@dataclass(frozen=True, slots=True)
class HotStuffVote(InstanceMessage):
    digest: str = ""
    rank: int = 0
    rank_m: int = 0
    rank_certificate: Optional[RankCertificate] = None
    size_bytes: int = derived("_wire_size")

    def _wire_size(self) -> int:
        cert = self.rank_certificate.size_bytes if self.rank_certificate else 0
        return HEADER_BYTES + SIGNATURE_BYTES + DIGEST_BYTES + cert
