"""Block and message digests: SHA-256 over a canonical encoding."""

from __future__ import annotations

import hashlib
from typing import Any


def _to_bytes(value: Any) -> bytes:
    """Canonically encode ``value`` into bytes for hashing.

    Supports the small set of types that flow through the protocols: bytes,
    strings, integers, None, and (nested) tuples/lists of those.  The encoding
    is unambiguous (length-prefixed, type-tagged) so that distinct structures
    never collide by construction.
    """
    if isinstance(value, bytes):
        return b"b" + len(value).to_bytes(4, "big") + value
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "big") + raw
    if isinstance(value, bool):
        return b"B" + (b"\x01" if value else b"\x00")
    if isinstance(value, int):
        raw = str(value).encode("ascii")
        return b"i" + len(raw).to_bytes(4, "big") + raw
    if value is None:
        return b"n"
    if isinstance(value, (tuple, list)):
        parts = b"".join(_to_bytes(item) for item in value)
        return b"t" + len(parts).to_bytes(4, "big") + parts
    raise TypeError(f"cannot canonically encode {type(value)!r} for hashing")


def digest(*values: Any) -> bytes:
    """Return a 32-byte SHA-256 digest over the canonical encoding of values."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(_to_bytes(value))
    return hasher.digest()


def digest_hex(*values: Any) -> str:
    """Return the hex form of :func:`digest` (handy for logs and block ids)."""
    return digest(*values).hex()

