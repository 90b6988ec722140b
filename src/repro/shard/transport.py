"""The OS transport carrying wire-framed messages between shards.

A channel is two ``os.pipe()``s, one per direction (:func:`pipe_pair`),
with the :class:`Transport` facade on each side.

Both file descriptors run non-blocking. ``send`` therefore has to be
**partial-write tolerant**: it loops over ``os.write`` until the whole
encoded message is out, and — crucially — while waiting for the pipe
to drain it also *reads* whatever the peer has sent. Without that, two
processes each blocked writing a large message into a full pipe while
the other's is also full would deadlock; draining the read side breaks
the cycle (incoming messages land in the inbox for a later ``recv``).

``recv`` is symmetric: reads come in arbitrary slices and are fed to a
:class:`~repro.shard.wire.StreamDecoder`, which tolerates torn reads
by construction. EOF (the peer died or closed) is remembered; once the
inbox drains, receiving raises :class:`TransportClosed`.
"""

from __future__ import annotations

import os
import select
from collections import deque
from typing import Deque, List, Optional, Tuple, Union

from repro.mq.frames import Message
from repro.shard.wire import FrameDecodeError, StreamDecoder, encode_message

_READ_CHUNK = 1 << 16


class TransportError(RuntimeError):
    """The transport is unusable (closed, timed out, or desynced)."""


class TransportClosed(TransportError):
    """The peer's end is gone (EOF on read or EPIPE on write)."""


class Transport:
    """One side of a framed, full-duplex, cross-process channel.

    Args:
        read_fd: fd to read the peer's bytes from.
        write_fd: fd to write to.
        label: debugging tag carried in error messages.
    """

    def __init__(self, read_fd: int, write_fd: int, label: str = ""):
        self._read_fd = read_fd
        self._write_fd = write_fd
        self.label = label
        os.set_blocking(read_fd, False)
        os.set_blocking(write_fd, False)
        self._decoder = StreamDecoder()
        self._inbox: Deque[Message] = deque()
        self._eof = False
        self._closed = False

    @property
    def eof(self) -> bool:
        """The peer's write end is closed (it exited or crashed)."""
        return self._eof

    # -- receiving -----------------------------------------------------------

    def _read_available(self) -> bool:
        """Drain readable bytes into the decoder; True if any arrived."""
        got_any = False
        while True:
            try:
                chunk = os.read(self._read_fd, _READ_CHUNK)
            except BlockingIOError:
                break
            if chunk == b"":
                self._eof = True
                break
            got_any = True
            try:
                self._inbox.extend(self._decoder.feed(chunk))
            except FrameDecodeError as exc:
                raise TransportError(
                    f"transport {self.label!r} desynchronized: {exc}"
                ) from exc
            if len(chunk) < _READ_CHUNK:
                break
        return got_any

    def pump(self) -> int:
        """Non-blocking: absorb whatever is readable right now.

        Returns the number of messages newly available. Never raises
        on EOF — it just latches :attr:`eof`; a SIGKILLed peer's torn
        tail stays harmlessly buffered in the decoder.
        """
        if self._closed:
            return 0
        before = len(self._inbox)
        if not self._eof:
            self._read_available()
        return len(self._inbox) - before

    def recv(self, timeout: Optional[float] = 0.0) -> Optional[Message]:
        """Next message; None when none arrives within *timeout* seconds.

        ``timeout=None`` blocks until a message or EOF. Raises
        :class:`TransportClosed` when the peer is gone and the inbox
        is empty — there is nothing left to receive, ever.
        """
        if self._closed:
            raise TransportClosed(f"transport {self.label!r} is closed")
        while True:
            if self._inbox:
                return self._inbox.popleft()
            if self._eof:
                raise TransportClosed(
                    f"transport {self.label!r}: peer closed"
                )
            readable, _, _ = select.select([self._read_fd], [], [], timeout)
            if not readable:
                return None
            if not self._read_available() and not self._eof:
                # Spurious wakeup; honour a finite timeout by not
                # looping forever (treat it as one wait slot spent).
                if timeout is not None:
                    return None

    def recv_all(self) -> List[Message]:
        """Pump, then drain the whole inbox (never blocks)."""
        self.pump()
        drained = list(self._inbox)
        self._inbox.clear()
        return drained

    # -- sending -------------------------------------------------------------

    def send(
        self, message: Union[Message, bytes], timeout: Optional[float] = 30.0
    ) -> None:
        """Write one message, tolerating short writes.

        *message* may arrive already wire-encoded (the dispatch seam,
        :func:`repro.shard.protocol.encode_dispatch`, hands over bytes).
        Loops until the encoded blob is fully written. While the pipe
        is full it drains the read side (deadlock avoidance) and waits
        for writability up to *timeout* seconds — a peer that neither
        reads nor dies within that window is an error.

        Raises :class:`TransportClosed` on a dead peer.
        """
        if self._closed:
            raise TransportClosed(f"transport {self.label!r} is closed")
        data = message if isinstance(message, bytes) else encode_message(message)
        view = memoryview(data)
        offset = 0
        while offset < len(data):
            try:
                offset += os.write(self._write_fd, view[offset:])
                continue
            except BlockingIOError:
                pass
            except BrokenPipeError:
                self._eof = True
                raise TransportClosed(
                    f"transport {self.label!r}: peer gone mid-send "
                    f"({offset}/{len(data)} bytes written)"
                ) from None
            # Pipe full: drain incoming traffic so the peer (possibly
            # itself blocked writing to us) can make progress, then
            # wait until our write side frees up.
            if not self._eof:
                self._read_available()
            readable, writable, _ = select.select(
                [self._read_fd] if not self._eof else [],
                [self._write_fd],
                [],
                timeout,
            )
            if not readable and not writable:
                raise TransportError(
                    f"transport {self.label!r}: send stalled for "
                    f"{timeout}s at {offset}/{len(data)} bytes"
                )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        _close_fds((self._read_fd, self._write_fd))


def _close_fds(fds: Tuple[int, int]) -> None:
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


class FdPair:
    """The four raw fds behind one parent↔child channel.

    Created *before* ``fork``; afterwards each process adopts its side
    (wrapping the right fds in a :class:`Transport`) and closes the
    other's — otherwise the child's death never produces EOF, because
    the parent itself still holds the child's write end open.
    """

    def __init__(self, parent_fds: Tuple[int, int], child_fds: Tuple[int, int]):
        self.parent_fds = parent_fds  # (read_fd, write_fd)
        self.child_fds = child_fds

    def adopt_parent(self, label: str = "") -> Transport:
        _close_fds(self.child_fds)
        return Transport(*self.parent_fds, label=label or "parent")

    def adopt_child(self, label: str = "") -> Transport:
        _close_fds(self.parent_fds)
        return Transport(*self.child_fds, label=label or "child")


def pipe_pair() -> FdPair:
    """Two pipes: parent→child and child→parent."""
    child_read, parent_write = os.pipe()
    parent_read, child_write = os.pipe()
    return FdPair(
        parent_fds=(parent_read, parent_write),
        child_fds=(child_read, child_write),
    )
