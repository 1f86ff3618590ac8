"""Monotonic rank bookkeeping (paper Sec. 4.1 and Algorithm 2).

Each replica tracks ``curRank`` — the highest *certified* rank it has seen —
together with the quorum certificate proving that 2f+1 replicas prepared a
block carrying that rank.  A leader about to propose collects 2f+1 rank
reports, takes the maximum, and assigns ``max + 1`` to its new block (clamped
to the epoch's ``maxRank``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.frozen import fast_init


@fast_init
@dataclass(frozen=True, slots=True)
class RankCertificate:
    """Proof that a rank was carried by a block prepared by 2f+1 replicas.

    ``rank == 0`` (the epoch's minimum) needs no certificate: the prepare
    validity rule in the paper only requires a QC when ``rank_m != minRank``.

    No signature is computed: the certificate records only ``signer_count``,
    which is all its modelled wire size depends on — one 96-byte BLS
    aggregate point plus a signer bitmap, matching the paper's claim that a
    rank certificate adds <1% to a 2 MB block.
    """

    rank: int
    signer_count: int = 0

    @property
    def size_bytes(self) -> int:
        if self.signer_count:
            # modelled aggregate: one 96-byte point + signer bitmap
            return 8 + 96 + 4 * ((self.signer_count + 31) // 32)
        return 8


@fast_init
@dataclass(frozen=True, slots=True)
class RankReport:
    """A rank message from one replica: its current highest certified rank."""

    replica: int
    rank: int
    view: int
    round: int
    instance: int
    certificate: RankCertificate = field(default_factory=lambda: RankCertificate(rank=0))

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be non-negative")

    @property
    def size_bytes(self) -> int:
        return 64 + self.certificate.size_bytes  # signature + cert


@dataclass(slots=True)
class RankState:
    """Per-replica ``curRank`` state (Algorithm 2, lines 23-26 and 37-41)."""

    rank: int = 0
    certificate: RankCertificate = field(default_factory=lambda: RankCertificate(rank=0))
    #: the last :meth:`quorum_certificate`, reused while the rank stands
    _reported: Optional[RankCertificate] = field(default=None, repr=False, compare=False)

    def observe(
        self, rank: int, certificate: Optional[RankCertificate] = None, signer_count: int = 0
    ) -> bool:
        """Adopt ``rank`` if it is higher than the current one.

        Returns True when the state advanced.  ``certificate`` defaults to a
        certificate of the rank by ``signer_count`` signers (a bare one by
        default), built only when the rank is adopted; callers in the
        optimised protocol pass the aggregate QC they verified.
        """
        if rank <= self.rank:
            return False
        self.rank = rank
        if certificate is None:
            certificate = RankCertificate(rank=rank, signer_count=signer_count)
        self.certificate = certificate
        return True

    def quorum_certificate(self, signer_count: int) -> RankCertificate:
        """The current rank by ``signer_count`` signers, what a vote carries:
        one immutable certificate, shared until the rank moves."""
        reported = self._reported
        if reported is None or reported.rank != self.rank or reported.signer_count != signer_count:
            reported = self._reported = RankCertificate(self.rank, signer_count)
        return reported


def choose_rank(
    reports: Sequence[RankReport],
    quorum: int,
    max_rank: int,
    byzantine_minimize: bool = False,
) -> Tuple[int, RankReport]:
    """Choose the rank for a new proposal from collected rank reports.

    Honest leaders (``byzantine_minimize=False``) take the maximum reported
    rank among at least ``quorum`` reports and add one, clamped to
    ``max_rank`` (Algorithm 2, line 6).

    A Byzantine straggler (Sec. 4.4 / Appendix B case 3) that collected more
    than ``quorum`` reports discards the highest ones and keeps only the
    lowest ``quorum`` before taking the maximum — the worst manipulation that
    still passes validation, since backups only require *some* 2f+1 valid
    reports.

    Returns ``(rank, winning_report)`` where ``winning_report`` supplies the
    certificate embedded in the pre-prepare message.
    """
    if len(reports) < quorum:
        raise ValueError(f"need at least {quorum} rank reports, got {len(reports)}")
    if max_rank < 0:
        raise ValueError("max_rank must be non-negative")

    pool = sorted(reports, key=lambda r: r.rank)
    if byzantine_minimize and len(pool) > quorum:
        pool = pool[:quorum]
    winning = max(pool, key=lambda r: r.rank)
    rank = min(winning.rank + 1, max_rank)
    return rank, winning
