"""Packet buffer (mbuf) pool with DPDK-style accounting.

On real hardware the NIC drops frames when the mbuf pool is empty;
reproducing that pressure matters for the SYN-flood resilience bench,
where a flood can exhaust buffers faster than workers free them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


class MbufPoolExhausted(RuntimeError):
    """Raised by :meth:`MbufPool.alloc` when no buffers remain."""


@dataclass
class Mbuf:
    """One packet buffer: raw frame bytes plus rx metadata.

    Mirrors the fields of ``rte_mbuf`` that Ruru's fast path touches:
    the data, the RSS hash computed by the NIC, the rx timestamp, the
    queue the frame arrived on, and — as ``packet_type`` does on
    hardware — what the port's one header pass made of the frame: a
    :class:`~repro.net.parser.ParsedPacket`, or the ``ParseError``
    reason saying why there is none.
    """

    data: bytes = field(repr=False, default=b"")
    rss_hash: int = 0
    timestamp_ns: int = 0
    queue_id: int = 0
    parsed: object = field(default=None, repr=False, compare=False)
    pool: Optional["MbufPool"] = field(default=None, repr=False, compare=False)

    def free(self) -> None:
        """Return this buffer to its pool (no-op for pool-less mbufs)."""
        if self.pool is not None:
            self.pool.free(self)

    def __len__(self) -> int:
        return len(self.data)


class MbufPool:
    """A bounded pool of :class:`Mbuf` objects, created on first use
    (up to ``size``) and recycled after.

    Args:
        size: total number of buffers. DPDK pools are commonly sized
            as ``2^n - 1``; any positive size works here.
        name: label used in stats output.
    """

    def __init__(self, size: int = 8191, name: str = "mbuf_pool"):
        if size <= 0:
            raise ValueError("pool size must be positive")
        self.size = size
        self.name = name
        self._free: List[Mbuf] = []
        self._created = 0
        self.alloc_count = 0
        self.free_count = 0
        self.exhausted_count = 0

    @property
    def available(self) -> int:
        """Buffers currently free."""
        return self.size - self.in_use

    @property
    def in_use(self) -> int:
        """Buffers currently allocated."""
        return self._created - len(self._free)

    def alloc(
        self, data: bytes, timestamp_ns: int = 0, rss_hash: int = 0,
        queue_id: int = 0, parsed: object = None,
    ) -> Mbuf:
        """Take a buffer from the pool and fill it.

        Raises:
            MbufPoolExhausted: when the pool is empty (the caller —
                the NIC — counts this as an rx drop, ``imissed``).
        """
        if self._free:
            mbuf = self._free.pop()
        elif self._created < self.size:
            self._created += 1
            mbuf = Mbuf(pool=self)
        else:
            self.exhausted_count += 1
            raise MbufPoolExhausted(self.name)
        mbuf.data = data
        mbuf.timestamp_ns = timestamp_ns
        mbuf.rss_hash = rss_hash
        mbuf.queue_id = queue_id
        mbuf.parsed = parsed
        self.alloc_count += 1
        return mbuf

    def free(self, mbuf: Mbuf) -> None:
        """Return *mbuf* to the pool."""
        if mbuf.pool is not self:
            raise ValueError("mbuf does not belong to this pool")
        if len(self._free) >= self._created:
            raise ValueError("double free: pool already full")
        mbuf.data = b""
        mbuf.parsed = None
        self._free.append(mbuf)
        self.free_count += 1

    def __repr__(self) -> str:
        return (
            f"MbufPool(name={self.name!r}, size={self.size}, "
            f"available={self.available})"
        )
