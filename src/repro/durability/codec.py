"""The snapshot envelope: versioned, length-framed, checksummed.

A checkpoint that can be half-read is worse than no checkpoint — a
recovery that loads partial flow-table state silently violates the
count-conservation ledger it exists to protect. The envelope makes the
failure mode binary: :func:`decode_snapshot` either returns the exact
dictionary :func:`encode_snapshot` was given, or raises
:class:`SnapshotError`. Never a subset, never a leaked
``json.JSONDecodeError`` or ``struct.error``.

Layout::

    MAGIC(8) | version(1) | payload_len(4, BE) | crc32(4, BE) | payload

The payload is UTF-8 JSON (every component contributes a plain-dict
``state_dict()``; raw bytes such as DLQ payloads are base64'd by their
owners). The CRC covers the payload, so any truncation or bit flip —
the failure modes a ``kill -9`` mid-write or a corrupting disk
produce — fails closed.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, Dict

SNAPSHOT_MAGIC = b"RURUSNAP"
SNAPSHOT_VERSION = 1

_HEADER = struct.Struct("!8sBII")  # magic, version, payload_len, crc32


class SnapshotError(ValueError):
    """A snapshot failed to decode: wrong magic/version, truncation,
    checksum mismatch, or malformed payload. The caller must treat the
    snapshot as absent — partial state is never returned."""


def encode_snapshot(state: Dict[str, Any]) -> bytes:
    """Serialize a snapshot dictionary into the framed envelope."""
    try:
        # No circular-reference bookkeeping (a quarter of the encode):
        # every state_dict() builds a fresh tree, and a cycle would
        # still fail typed, as a RecursionError.
        payload = json.dumps(
            state, separators=(",", ":"), allow_nan=False, check_circular=False
        ).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        raise SnapshotError(f"state is not snapshot-serializable: {exc}") from exc
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(payload), zlib.crc32(payload)
    )
    return header + payload


def decode_snapshot(data: bytes) -> Dict[str, Any]:
    """Parse an envelope back into the snapshot dictionary.

    Raises :class:`SnapshotError` on any damage; never returns partial
    state.
    """
    if len(data) < _HEADER.size:
        raise SnapshotError(
            f"snapshot too short: {len(data)} < {_HEADER.size} header bytes"
        )
    magic, version, payload_len, crc = _HEADER.unpack_from(data, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"unknown snapshot version {version}")
    payload = data[_HEADER.size:]
    if len(payload) != payload_len:
        raise SnapshotError(
            f"snapshot payload length {len(payload)} != framed {payload_len}"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotError("snapshot checksum mismatch")
    try:
        state = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        # Reachable only on a CRC collision; still fail typed.
        raise SnapshotError(f"snapshot payload undecodable: {exc}") from exc
    if not isinstance(state, dict):
        raise SnapshotError(
            f"snapshot payload is {type(state).__name__}, expected object"
        )
    return state
