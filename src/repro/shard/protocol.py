"""The parent↔shard control protocol: topics and payload codecs.

Every message is a normal :class:`repro.mq.frames.Message` (topic
frame + payload frames) carried over the wire framing — the same
multipart model the in-process bus uses, so the codec layer is shared
rather than reinvented.

Dataplane:

* ``batch``  parent → shard: one routed packet batch (seq, packets).
* ``ack``    shard → parent: that batch's outcome — processed count,
  parse errors, and every completed latency record, **in the same
  message**. Accounting is all-or-nothing per batch: either the parent
  sees the ack (counts + records together) or it sees nothing and the
  batch is charged to ``lost_at_crash``.

Control plane: ``hb`` heartbeats (:mod:`repro.shard.heartbeat`),
``ckpt_req``/``ckpt`` checkpoint capture, ``restore`` the last
checkpoint's state + one delta of acked counts into a restarted shard, ``fault`` scheduled-fault arming,
``drain``/``drained`` the graceful shutdown handshake. The ``ckpt`` reply
and the ``restore`` carry a ``state_dict`` in a snapshot envelope
(:func:`encode_state`); the rest are small JSON tables.
"""

from __future__ import annotations

import json
import struct
from typing import Iterable, List, Tuple

from repro.durability.codec import SnapshotError, decode_snapshot, encode_snapshot
from repro.mq.frames import Message
from repro.shard.wire import encode_message

BATCH_TOPIC = b"batch"
ACK_TOPIC = b"ack"
CKPT_REQ_TOPIC = b"ckpt_req"
CKPT_TOPIC = b"ckpt"
RESTORE_TOPIC = b"restore"
FAULT_TOPIC = b"fault"
DRAIN_TOPIC = b"drain"
DRAINED_TOPIC = b"drained"

_PKT = struct.Struct("!QII")  # timestamp_ns, rss_hash, data length
_BATCH_HDR = struct.Struct("!QI")  # seq, packet count
_ACK_HDR = struct.Struct("!QIII")  # seq, processed, parse_errors, records
_LEN = struct.Struct("!I")


class ProtocolError(ValueError):
    """A protocol message failed structural validation."""


# -- packet batches ----------------------------------------------------------


def pack_packets(packets: Iterable[Tuple[int, int, bytes]]) -> Tuple[bytes, int]:
    """``(timestamp_ns, rss_hash, data)`` triples → one blob + count."""
    parts: List[bytes] = []
    count = 0
    for timestamp_ns, rss_hash, data in packets:
        parts.append(_PKT.pack(timestamp_ns, rss_hash, len(data)))
        parts.append(data)
        count += 1
    return b"".join(parts), count


def unpack_packets(blob: bytes, count: int) -> List[Tuple[int, int, bytes]]:
    """Inverse of :func:`pack_packets`; validates the count and length."""
    packets: List[Tuple[int, int, bytes]] = []
    offset = 0
    for _ in range(count):
        if offset + _PKT.size > len(blob):
            raise ProtocolError("truncated packet header in batch")
        timestamp_ns, rss_hash, length = _PKT.unpack_from(blob, offset)
        offset += _PKT.size
        if offset + length > len(blob):
            raise ProtocolError("truncated packet data in batch")
        packets.append((timestamp_ns, rss_hash, bytes(blob[offset : offset + length])))
        offset += length
    if offset != len(blob):
        raise ProtocolError(
            f"{len(blob) - offset} trailing bytes after {count} packets"
        )
    return packets


def encode_batch(seq: int, packets: Iterable[Tuple[int, int, bytes]]) -> Message:
    blob, count = pack_packets(packets)
    return Message.with_topic(BATCH_TOPIC, _BATCH_HDR.pack(seq, count), blob)


def decode_batch(message: Message) -> Tuple[int, List[Tuple[int, int, bytes]]]:
    if len(message.frames) != 3 or len(message.frames[1]) != _BATCH_HDR.size:
        raise ProtocolError("malformed batch message")
    seq, count = _BATCH_HDR.unpack(message.frames[1])
    return seq, unpack_packets(message.frames[2], count)


# -- the dispatch seam: the only callers of the batch codec ------------------


def encode_dispatch(seq: int, burst: List[Tuple[int, int, bytes]]) -> bytes:
    """One shard's share of a round, as ``_route_round`` emits it →
    the bytes written to that shard's pipe."""
    return encode_message(encode_batch(seq, burst))


def decode_dispatch(message: Message) -> Tuple[int, List[Tuple[int, int, bytes]]]:
    """The ``batch`` message the child's transport reassembled from
    those bytes → ``(seq, burst)``, the burst as
    :meth:`~repro.core.worker.QueueWorker.process_burst` consumes it."""
    return decode_batch(message)


# -- acks --------------------------------------------------------------------


def pack_record_blob(records: Iterable[bytes]) -> Tuple[bytes, int]:
    parts: List[bytes] = []
    count = 0
    for record in records:
        parts.append(_LEN.pack(len(record)))
        parts.append(record)
        count += 1
    return b"".join(parts), count


def unpack_record_blob(blob: bytes, count: int) -> List[bytes]:
    records: List[bytes] = []
    offset = 0
    for _ in range(count):
        if offset + _LEN.size > len(blob):
            raise ProtocolError("truncated record length in ack")
        (length,) = _LEN.unpack_from(blob, offset)
        offset += _LEN.size
        if offset + length > len(blob):
            raise ProtocolError("truncated record body in ack")
        records.append(bytes(blob[offset : offset + length]))
        offset += length
    if offset != len(blob):
        raise ProtocolError(
            f"{len(blob) - offset} trailing bytes after {count} records"
        )
    return records


def encode_ack(
    seq: int, processed: int, parse_errors: int, records: Iterable[bytes]
) -> Message:
    blob, count = pack_record_blob(records)
    return Message.with_topic(
        ACK_TOPIC, _ACK_HDR.pack(seq, processed, parse_errors, count), blob
    )


def decode_ack(message: Message) -> Tuple[int, int, int, List[bytes]]:
    """``(seq, processed, parse_errors, records)`` from an ack."""
    if len(message.frames) != 3 or len(message.frames[1]) != _ACK_HDR.size:
        raise ProtocolError("malformed ack message")
    seq, processed, parse_errors, count = _ACK_HDR.unpack(message.frames[1])
    return seq, processed, parse_errors, unpack_record_blob(message.frames[2], count)


# -- control messages --------------------------------------------------------


def _payload(message: Message) -> bytes:
    if len(message.frames) != 2:
        raise ProtocolError(
            f"malformed {message.topic!r} message: {len(message.frames)} frames"
        )
    return message.frames[1]


def encode_state(topic: bytes, payload: dict) -> Message:
    """A message carrying a ``state_dict``: one snapshot envelope."""
    return Message.with_topic(topic, encode_snapshot(payload))


def decode_state(message: Message) -> dict:
    """Inverse of :func:`encode_state`; damage is a :class:`ProtocolError`."""
    try:
        return decode_snapshot(_payload(message))
    except SnapshotError as exc:
        raise ProtocolError(f"bad {message.topic!r} payload: {exc}") from None


def encode_json(topic: bytes, payload: dict) -> Message:
    return Message.with_topic(
        topic, json.dumps(payload, sort_keys=True).encode("utf-8")
    )


def decode_json(message: Message) -> dict:
    try:
        payload = json.loads(_payload(message).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad {message.topic!r} payload: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(f"{message.topic!r} payload must be a table")
    return payload
