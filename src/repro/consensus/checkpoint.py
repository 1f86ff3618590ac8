"""Epoch checkpointing (paper Sec. 5.2.1 "Epoch advancement").

At the end of an epoch every replica broadcasts a checkpoint message; 2f+1
matching checkpoint messages form a *stable checkpoint*, after which the
replica may start processing the next epoch.  A replica that lags fetches the
missing log entries together with the stable checkpoint proving their
integrity (state transfer is modelled as a single bulk message).

This module builds a replica's checkpoint message; the votes are counted in
one place, :class:`repro.core.epoch.EpochPacemaker`, whose stable
checkpoint gates the advance.
"""

from __future__ import annotations

from repro.consensus.messages import CheckpointMessage
from repro.crypto.hashing import digest_hex


def build_checkpoint(replica_id: int, epoch: int, confirmed_count: int) -> CheckpointMessage:
    """``replica_id``'s checkpoint message for ``epoch``."""
    return CheckpointMessage(
        sender=replica_id,
        instance=-1,
        view=0,
        round=0,
        epoch=epoch,
        state_digest=digest_hex("checkpoint", epoch, confirmed_count),
    )
