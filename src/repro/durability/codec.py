"""The snapshot envelope: versioned, length-framed, checksummed.

A checkpoint that can be half-read is worse than no checkpoint — a
recovery that loads partial flow-table state silently violates the
count-conservation ledger it exists to protect. The envelope makes the
failure mode binary: :func:`decode_snapshot` either returns the exact
dictionary :func:`encode_snapshot` was given, or raises
:class:`SnapshotError`. Never a subset, never a leaked
``pickle.UnpicklingError`` or ``struct.error``.

Layout::

    MAGIC(8) | version(1) | payload_len(4, BE) | crc32(4, BE) | payload

The payload is a protocol-5 pickle of plain data (dict, list, tuple,
str, bytes, int, float, bool, None), so components hand over natural
rows: tuple keys stay tuples, bytes stay bytes. The memo is off, so the
bytes depend only on the values and a cycle is refused. Any other
object, and NaN or ±inf, is refused at encode, so an unloadable
snapshot is never written; the decoder resolves no global, so a
snapshot never names a callable. The CRC covers the payload, so any
truncation or bit flip — what a ``kill -9`` mid-write or a corrupting
disk produce — fails closed.
"""

from __future__ import annotations

import io
import pickle
import re
import struct
import zlib
from typing import Any, Dict

SNAPSHOT_MAGIC = b"RURUSNAP"
#: 2: a pickle of plain rows (1 was UTF-8 JSON, and is not read).
SNAPSHOT_VERSION = 2

_HEADER = struct.Struct("!8sBII")  # magic, version, payload_len, crc32

#: A BINFLOAT opcode whose exponent is all ones (NaN or ±inf). Bytes
#: and strings can hold the same pattern, so a hit is confirmed by
#: walking the state.
_NON_FINITE_FLOAT = re.compile(rb"G[\x7f\xff][\xf0-\xff]")


class SnapshotError(ValueError):
    """A snapshot failed to decode: wrong magic/version, truncation,
    checksum mismatch, or malformed payload. The caller must treat the
    snapshot as absent — partial state is never returned."""


class ForeignSnapshotError(SnapshotError):
    """An envelope of another version: not damage, but a state this
    build cannot read (a JSON-era checkpoint). Recovery must stop on it
    rather than resume without it."""


class _PlainPickler(pickle.Pickler):
    # Consulted for every object but the C pickler's own fast cases: the
    # plain types above (and set, frozenset, bytearray, which round-trip).
    def reducer_override(self, obj):
        raise SnapshotError(f"{type(obj).__name__} is not plain snapshot data")


class _PlainUnpickler(pickle.Unpickler):
    def find_class(self, module, name):
        raise SnapshotError(f"snapshot names {module}.{name}: no global is resolved")


def _holds_non_finite(state: Any) -> bool:
    """Whether a float anywhere in *state* (keys included) is NaN or ±inf."""
    pending = [state]
    for value in pending:  # grows as containers are opened
        kind = type(value)
        if kind is dict:
            pending += value
            pending += value.values()
        elif kind in (list, tuple, set, frozenset):
            pending += value
        elif kind is float and value - value != 0.0:  # NaN - NaN, inf - inf: NaN
            return True
    return False


def encode_snapshot(state: Dict[str, Any]) -> bytes:
    """Serialize a snapshot dictionary into the framed envelope."""
    buffer = io.BytesIO()
    pickler = _PlainPickler(buffer, protocol=5)
    pickler.fast = True  # no memo: equal values, equal bytes; a cycle fails
    try:
        pickler.dump(state)
    except (pickle.PicklingError, TypeError, ValueError, RecursionError) as exc:
        raise SnapshotError(f"state is not snapshot-serializable: {exc}") from exc
    payload = buffer.getvalue()
    if _NON_FINITE_FLOAT.search(payload) and _holds_non_finite(state):
        raise SnapshotError("state is not snapshot-serializable: NaN or infinity")
    header = _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(payload), zlib.crc32(payload)
    )
    return header + payload


def decode_snapshot(data: bytes) -> Dict[str, Any]:
    """Parse an envelope back into the snapshot dictionary.

    Raises :class:`SnapshotError` on any damage — and its
    :class:`ForeignSnapshotError` on an envelope of another version;
    never returns partial state.
    """
    if len(data) < _HEADER.size:
        raise SnapshotError(
            f"snapshot too short: {len(data)} < {_HEADER.size} header bytes"
        )
    magic, version, payload_len, crc = _HEADER.unpack_from(data, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotError(f"bad snapshot magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise ForeignSnapshotError(
            f"snapshot version {version}; this build reads version {SNAPSHOT_VERSION} only"
        )
    payload = data[_HEADER.size:]
    if len(payload) != payload_len:
        raise SnapshotError(
            f"snapshot payload length {len(payload)} != framed {payload_len}"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotError("snapshot checksum mismatch")
    stream = io.BytesIO(payload)
    try:
        state = _PlainUnpickler(stream).load()
    except Exception as exc:  # noqa: BLE001 - any unpickling failure is damage
        # Reachable only on a CRC collision or a crafted payload.
        raise SnapshotError(f"snapshot payload undecodable: {exc}") from exc
    if stream.tell() != len(payload):
        raise SnapshotError("snapshot payload has bytes after its end")
    if type(state) is not dict:
        raise SnapshotError(f"snapshot payload is {type(state).__name__}, expected a dict")
    return state
