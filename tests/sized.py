"""A test payload with a wire size.

The transport and the replicas read a message's size off the message
(``message.size_bytes``), as protocol messages carry it; transport tests
that send plain values wrap them in :class:`Sized`.
"""

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class Sized:
    payload: Any
    size_bytes: int = 0
