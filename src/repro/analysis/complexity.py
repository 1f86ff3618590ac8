"""Message and authenticator complexity (paper Appendix A).

For one consensus round with ``n`` replicas:

============  ===============  ==========  ==========  ======================
phase         PBFT             Ladon-PBFT  Ladon-opt   notes
============  ===============  ==========  ==========  ======================
pre-prepare   O(n)             O(n^2)      O(n)        Ladon-PBFT ships 2f+1
                                                       rank reports to n
                                                       backups; Ladon-opt
                                                       ships one aggregate
prepare       O(n^2)           O(n^2)      O(n^2)
commit        O(n^2)           O(n^2 + n)  O(n^2 + n)  rank messages add an
                                                       all-to-one O(n)
============  ===============  ==========  ==========  ======================

Authenticator complexity per backup in the pre-prepare phase: O(1) for PBFT,
O(n) for Ladon-PBFT (verify each rank report), O(1) for Ladon-opt (verify one
aggregate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.consensus.quorum import quorum_threshold


@dataclass(frozen=True)
class ComplexityProfile:
    """Concrete per-round message/authenticator counts for a given ``n``."""

    protocol: str
    n: int
    pre_prepare_messages: int
    prepare_messages: int
    commit_messages: int
    rank_messages: int
    pre_prepare_units: int  # total rank-information units carried in pre-prepares
    backup_verifications_pre_prepare: int  # signature checks per backup

    @property
    def total_messages(self) -> int:
        return (
            self.pre_prepare_messages
            + self.prepare_messages
            + self.commit_messages
            + self.rank_messages
        )


def pbft_complexity(n: int) -> ComplexityProfile:
    """Vanilla PBFT: O(n) pre-prepare, O(n^2) prepare/commit."""
    return ComplexityProfile(
        protocol="pbft",
        n=n,
        pre_prepare_messages=n - 1,
        prepare_messages=(n - 1) * (n - 1),
        commit_messages=(n - 1) * (n - 1),
        rank_messages=0,
        pre_prepare_units=n - 1,
        backup_verifications_pre_prepare=1,
    )


def ladon_pbft_complexity(n: int) -> ComplexityProfile:
    """Ladon-PBFT: the pre-prepare carries 2f+1 rank reports to every backup."""
    quorum = quorum_threshold(n)
    return ComplexityProfile(
        protocol="ladon-pbft",
        n=n,
        pre_prepare_messages=n - 1,
        prepare_messages=(n - 1) * (n - 1),
        commit_messages=(n - 1) * (n - 1),
        rank_messages=n - 1,
        pre_prepare_units=(n - 1) * quorum,
        backup_verifications_pre_prepare=quorum,
    )


def ladon_opt_complexity(n: int) -> ComplexityProfile:
    """Ladon-opt: the rank report set collapses into one aggregate signature."""
    return ComplexityProfile(
        protocol="ladon-opt",
        n=n,
        pre_prepare_messages=n - 1,
        prepare_messages=(n - 1) * (n - 1),
        commit_messages=(n - 1) * (n - 1),
        rank_messages=n - 1,
        pre_prepare_units=n - 1,
        backup_verifications_pre_prepare=1,
    )


def compare_protocol_complexity(n: int) -> Dict[str, ComplexityProfile]:
    """All three profiles, keyed by protocol name."""
    return {
        "pbft": pbft_complexity(n),
        "ladon-pbft": ladon_pbft_complexity(n),
        "ladon-opt": ladon_opt_complexity(n),
    }
