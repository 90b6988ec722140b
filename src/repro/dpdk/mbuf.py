"""The packet-buffer budget and the row a received frame occupies.

On real hardware the NIC drops frames when the mbuf pool is empty;
reproducing that pressure matters for the SYN-flood resilience bench,
where a flood can exhaust buffers faster than workers free them. That
pressure is a count, so a count is what :class:`MbufPool` keeps; the
frame itself travels as an immutable :class:`RxRow`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


class RxRow(NamedTuple):
    """One received frame, as it sits in an rx ring and as ``rx_burst``
    hands it to a worker.

    Mirrors the fields of ``rte_mbuf`` that Ruru's fast path touches.
    ``parsed`` is — as ``packet_type`` is on hardware — what the port's
    one header pass made of the frame: a
    :class:`~repro.net.parser.ParsedPacket`, the reject reason, or None
    for a frame no pass has seen (the shard child's, parsed by the
    worker from ``data``); ``pool`` is whose buffer the frame holds.
    """

    timestamp_ns: int
    rss_hash: int
    parsed: object
    data: bytes
    queue_id: int = 0
    pool: Optional["MbufPool"] = None

    def free(self) -> None:
        """Give this frame's buffer back (no-op for a pool-less row)."""
        if self.pool is not None:
            self.pool.give_back()


class MbufPool:
    """A counted budget of ``size`` packet buffers.

    The port takes one per frame it queues, a burst's worth at once
    (:meth:`settle`); whoever consumes the rows gives them back
    (:meth:`give_back`). ``alloc_count − free_count`` is ``in_use`` ≤ ``size``.

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
        self.alloc_count = 0
        self.free_count = 0
        self.exhausted_count = 0

    @property
    def available(self) -> int:
        """Buffers currently free."""
        return self.size - self.alloc_count + self.free_count

    @property
    def in_use(self) -> int:
        """Buffers currently out."""
        return self.alloc_count - self.free_count

    def settle(self, taken: int, given_back: int = 0, refused: int = 0) -> None:
        """Book one burst: buffers *taken* (each while one was free),
        *given_back* within it (a frame its ring refused, a displaced
        victim), and requests *refused* because none was free — rx
        drops (``imissed``) to the caller, the NIC."""
        in_use = self.in_use + taken - given_back
        if not 0 <= in_use <= self.size:
            raise ValueError(f"{self.name}: {in_use} of {self.size} buffers in use")
        self.alloc_count += taken
        self.free_count += given_back
        self.exhausted_count += refused

    def give_back(self, count: int = 1) -> None:
        """Return *count* buffers to the budget (a double give-back,
        one past ``in_use``, raises)."""
        self.settle(0, given_back=count)

    def __repr__(self) -> str:
        return (
            f"MbufPool(name={self.name!r}, size={self.size}, "
            f"available={self.available})"
        )
