"""RCC baseline.

RCC (Gupta et al., ICDE 2021) runs concurrent Byzantine commit algorithm
(BCA) instances whose outputs are interleaved round-robin — the same
pre-determined global ordering behaviour as ISS for the purposes of the
paper's evaluation.  RCC's distinguishing mechanism is *wait-free leader
replacement*: a leader whose instance lags the others by more than
``lag_threshold`` blocks is replaced without stopping the other instances.
The evaluation's honest stragglers are calibrated not to trigger replacement
(they slow down without appearing faulty), so RCC tracks ISS closely; the
replacement machinery is still implemented and unit-tested.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.block import Block
from repro.protocols.iss import ISSReplica


class RCCReplica(ISSReplica):
    """A replica running RCC (ISS's interleaving, plus lag tracking)."""

    #: number of blocks an instance may lag behind the front-runner before its
    #: leader is considered for replacement
    lag_threshold: int = 32

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rounds_committed: Dict[int, int] = {i: 0 for i in range(self.config.m)}
        self.replacement_requests: List[int] = []

    # ---------------------------------------------------------- lag tracking
    def on_partial_commit(self, block: Block) -> None:
        self._rounds_committed[block.instance] = max(
            self._rounds_committed.get(block.instance, 0), block.round
        )
        super().on_partial_commit(block)
        self._check_lagging_instances()

    def _check_lagging_instances(self) -> None:
        """Wait-free detection of lagging leaders (RCC Sec. 3 mechanism)."""
        if not self._rounds_committed:
            return
        front = max(self._rounds_committed.values())
        for instance_id, round in self._rounds_committed.items():
            if front - round > self.lag_threshold and instance_id not in self.replacement_requests:
                self.replacement_requests.append(instance_id)

    def lagging_instances(self) -> List[int]:
        """Instances currently flagged for leader replacement."""
        return list(self.replacement_requests)
