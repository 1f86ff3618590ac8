"""Ladon's primary contribution: dynamic global ordering of Multi-BFT blocks.

This package is deliberately free of networking: it contains the pure data
structures and algorithms of the paper's Sections 3–5 (blocks, monotonic
ranks, the global ordering algorithm, epochs and the causal strength
metric).  The protocol systems in :mod:`repro.protocols` drive these
against the simulated network.
"""

from repro.core.block import Block, BlockId, ordering_key, precedes
from repro.core.rank import RankState, RankReport, RankCertificate, choose_rank
from repro.core.ordering import (
    GlobalOrderer,
    DynamicOrderer,
    ConfirmedBlock,
    ConfirmationBar,
)
from repro.core.predetermined import PredeterminedOrderer
from repro.core.dqbft_ordering import DQBFTOrderer
from repro.core.epoch import EpochConfig, EpochPacemaker, EpochState
from repro.core.causality import causal_strength, count_causality_violations

__all__ = [
    "Block",
    "BlockId",
    "ordering_key",
    "precedes",
    "RankState",
    "RankReport",
    "RankCertificate",
    "choose_rank",
    "GlobalOrderer",
    "DynamicOrderer",
    "ConfirmedBlock",
    "ConfirmationBar",
    "PredeterminedOrderer",
    "DQBFTOrderer",
    "EpochConfig",
    "EpochPacemaker",
    "EpochState",
    "causal_strength",
    "count_causality_violations",
]
