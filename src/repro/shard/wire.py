"""Length-prefixed wire framing for MQ messages over byte streams.

Inside one process the bus passes :class:`repro.mq.frames.Message`
objects by reference. Between processes the same multipart messages
must cross a pipe or Unix-domain socket, which is a *byte stream*: the
kernel is free to deliver a message in arbitrary slices ("torn reads")
and to accept only part of a write ("short writes"). This module is
the boundary codec:

* :func:`encode_message` — one message to one self-delimiting blob:
  a fixed header (magic, version, frame count), one 32-bit length per
  frame, then the frame bytes.
* :class:`StreamDecoder` — the incremental inverse. Feed it byte
  slices in any fragmentation; it buffers partial input and yields
  complete messages, in order.

Failure discipline: anything structurally wrong — bad magic, unknown
version, a frame count or length beyond the caps — raises
:class:`FrameDecodeError` immediately. Truncation is *not* an error
while the stream is open (the rest of the message may still arrive);
it becomes one only when the caller declares the stream finished via
:meth:`StreamDecoder.check_eof`. A decoder that has raised stays
poisoned: byte streams have no resynchronization points, so the only
safe recovery is to drop the connection.
"""

from __future__ import annotations

import struct
from typing import List

from repro.mq.frames import Message

#: First bytes of every wire message; anything else is garbage or a
#: desynchronized stream.
WIRE_MAGIC = b"RW"
WIRE_VERSION = 1

#: Caps, enforced on both encode and decode, so a corrupt length field
#: can never convince the decoder to buffer gigabytes.
MAX_FRAMES = 256
MAX_FRAME_BYTES = 1 << 26  # 64 MiB per frame
MAX_MESSAGE_BYTES = 1 << 27  # 128 MiB per message

_HEADER = struct.Struct("!2sBH")  # magic, version, frame count


class FrameDecodeError(ValueError):
    """The byte stream is not a valid wire-framed message sequence."""


def encode_message(message: Message) -> bytes:
    """Serialize one multipart message to a self-delimiting blob."""
    frames = message.frames
    if len(frames) > MAX_FRAMES:
        raise FrameDecodeError(
            f"message has {len(frames)} frames, cap is {MAX_FRAMES}"
        )
    total = 0
    lengths = []
    for frame in frames:
        if len(frame) > MAX_FRAME_BYTES:
            raise FrameDecodeError(
                f"frame of {len(frame)} bytes exceeds cap {MAX_FRAME_BYTES}"
            )
        total += len(frame)
        lengths.append(len(frame))
    if total > MAX_MESSAGE_BYTES:
        raise FrameDecodeError(
            f"message of {total} bytes exceeds cap {MAX_MESSAGE_BYTES}"
        )
    parts = [
        _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, len(frames)),
        struct.pack(f"!{len(frames)}I", *lengths),
    ]
    parts.extend(frames)
    return b"".join(parts)


class StreamDecoder:
    """Incremental decoder over an arbitrarily fragmented byte stream.

    >>> blob = encode_message(Message([b"topic", b"payload"]))
    >>> decoder = StreamDecoder()
    >>> decoder.feed(blob[:3])
    []
    >>> [m.topic for m in decoder.feed(blob[3:])]
    [b'topic']
    """

    def __init__(self):
        self._buffer = bytearray()
        self._poisoned: Exception | None = None
        self.messages_decoded = 0
        self.bytes_consumed = 0

    def _fail(self, reason: str) -> "FrameDecodeError":
        error = FrameDecodeError(reason)
        self._poisoned = error
        return error

    def feed(self, data: bytes) -> List[Message]:
        """Absorb *data*; return every message completed by it.

        Raises :class:`FrameDecodeError` on structural damage; the
        decoder is then poisoned and every further call re-raises.
        """
        if self._poisoned is not None:
            raise self._poisoned
        self._buffer.extend(data)
        messages: List[Message] = []
        buf = self._buffer
        offset = 0
        while True:
            if len(buf) - offset < _HEADER.size:
                break
            magic, version, nframes = _HEADER.unpack_from(buf, offset)
            if magic != WIRE_MAGIC:
                raise self._fail(f"bad wire magic {bytes(magic)!r}")
            if version != WIRE_VERSION:
                raise self._fail(f"unknown wire version {version}")
            if nframes == 0:
                raise self._fail("zero-frame message")
            if nframes > MAX_FRAMES:
                raise self._fail(
                    f"frame count {nframes} exceeds cap {MAX_FRAMES}"
                )
            lengths_end = offset + _HEADER.size + 4 * nframes
            if len(buf) < lengths_end:
                break  # truncated length table: wait for more bytes
            lengths = struct.unpack_from(
                f"!{nframes}I", buf, offset + _HEADER.size
            )
            total = 0
            for length in lengths:
                if length > MAX_FRAME_BYTES:
                    raise self._fail(
                        f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
                    )
                total += length
            if total > MAX_MESSAGE_BYTES:
                raise self._fail(
                    f"message of {total} bytes exceeds cap {MAX_MESSAGE_BYTES}"
                )
            if len(buf) < lengths_end + total:
                break  # truncated body: wait for more bytes
            frames = []
            cursor = lengths_end
            for length in lengths:
                frames.append(bytes(buf[cursor : cursor + length]))
                cursor += length
            messages.append(Message(frames))
            self.messages_decoded += 1
            offset = cursor
        if offset:
            del buf[:offset]
            self.bytes_consumed += offset
        return messages

    def check_eof(self) -> None:
        """Declare the stream finished.

        A clean close lands exactly on a message boundary; leftover
        bytes mean the peer died mid-write (a torn tail). That is a
        decode error *at EOF* — the message can never complete.
        """
        if self._poisoned is not None:
            raise self._poisoned
        if self._buffer:
            raise self._fail(
                f"stream ended mid-message with {len(self._buffer)} "
                "buffered bytes (torn tail)"
            )
