"""Simulated multi-queue NIC port with hardware RSS classification.

A real NIC extracts the L3/L4 tuple in hardware, Toeplitz-hashes it,
picks an rx queue through the RETA, and DMAs the frame into an mbuf
whose ``packet_type`` says what it found. :class:`NicPort` does that
sequence in software, a burst at a time: one header pass per frame
(:meth:`PacketParser.header_pass
<repro.net.parser.PacketParser.header_pass>`), whose result is the RSS
input, the admission controller's triage class and — riding the
:class:`~repro.dpdk.mbuf.RxRow` — the worker's input; then the
:class:`~repro.dpdk.rss.RssHasher`, a buffer off the pool's budget, and
a bounded per-queue ring of rows. Workers drain queues with
:meth:`RxQueue.rx_burst`, DPDK-style.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dpdk.mbuf import MbufPool, RxRow
from repro.dpdk.port_stats import PortStats
from repro.dpdk.ring import Ring
from repro.dpdk.rss import RssHasher, SYMMETRIC_RSS_KEY
from repro.net.packet import Packet
from repro.net.parser import PacketParser, ParsedPacket

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

DEFAULT_BURST_SIZE = 32


class RxQueue:
    """One receive queue: a bounded ring of rows plus its id."""

    def __init__(self, queue_id: int, capacity: int = 4096):
        self.queue_id = queue_id
        self.ring: Ring = Ring(capacity=capacity, name=f"rxq{queue_id}")

    def rx_burst(self, max_packets: int = DEFAULT_BURST_SIZE) -> list:
        """Poll up to *max_packets* rows off this queue."""
        return self.ring.dequeue_burst(max_packets)

    def __len__(self) -> int:
        return len(self.ring)


class NicPort:
    """A port with RSS spreading frames across ``num_queues`` rx queues.

    Args:
        num_queues: receive queue count (one worker core each in Ruru).
        rss_key: the Toeplitz key; defaults to the symmetric key so
            both flow directions share a queue.
        mbuf_pool: buffer budget; a default one is created if omitted.
        queue_capacity: ring slots per queue.
        admission: optional overload controller; when set, frames pass
            its priority triage before a buffer is taken and a full ring
            may displace its newest payload frame for a handshake frame.
    """

    def __init__(
        self,
        num_queues: int = 4,
        rss_key: bytes = SYMMETRIC_RSS_KEY,
        mbuf_pool: Optional[MbufPool] = None,
        queue_capacity: int = 4096,
        port_id: int = 0,
        admission=None,
    ):
        self.port_id = port_id
        self.hasher = RssHasher(key=rss_key, num_queues=num_queues)
        self.queues: List[RxQueue] = [
            RxQueue(i, capacity=queue_capacity) for i in range(num_queues)
        ]
        self.pool = mbuf_pool or MbufPool(size=max(8192, queue_capacity * num_queues))
        self.stats = PortStats()
        self.admission = admission
        self._parser = PacketParser()

    @property
    def num_queues(self) -> int:
        return len(self.queues)

    def queue_balance(self) -> List[float]:
        """Fraction of received frames per configured queue, in queue
        order, zeros included; ``[]`` while nothing has been received."""
        return self.stats.queue_balance(self.num_queues)

    # -- hardware-side classification -----------------------------------

    @staticmethod
    def _extract_tuple(data: bytes) -> Optional[Tuple[int, int, int, int, bool]]:
        """Hardware-style tuple extraction; None if the frame has no
        hashable TCP/UDP 4-tuple (such frames go to queue 0).
        """
        if len(data) < 14:
            return None
        ethertype = _U16.unpack_from(data, 12)[0]
        offset = 14
        while ethertype == 0x8100 and len(data) >= offset + 4:
            ethertype = _U16.unpack_from(data, offset + 2)[0]
            offset += 4
        if ethertype == 0x0800:  # IPv4
            if len(data) < offset + 20:
                return None
            ihl = (data[offset] & 0xF) * 4
            protocol = data[offset + 9]
            if protocol not in (6, 17) or len(data) < offset + ihl + 4:
                return None
            src = _U32.unpack_from(data, offset + 12)[0]
            dst = _U32.unpack_from(data, offset + 16)[0]
            sport = _U16.unpack_from(data, offset + ihl)[0]
            dport = _U16.unpack_from(data, offset + ihl + 2)[0]
            return src, dst, sport, dport, False
        if ethertype == 0x86DD:  # IPv6
            if len(data) < offset + 44:
                return None
            next_header = data[offset + 6]
            if next_header not in (6, 17):
                return None
            src = int.from_bytes(data[offset + 8:offset + 24], "big")
            dst = int.from_bytes(data[offset + 24:offset + 40], "big")
            sport = _U16.unpack_from(data, offset + 40)[0]
            dport = _U16.unpack_from(data, offset + 42)[0]
            return src, dst, sport, dport, True
        return None

    # -- rx path ----------------------------------------------------------

    def receive(self, packet: Packet) -> bool:
        """Classify one frame and queue it; False if it was dropped."""
        return self.receive_burst((packet,)) == 1

    def receive_burst(self, packets: Iterable[Packet]) -> int:
        """Classify and queue a burst of frames; returns how many were
        queued.

        Each frame's headers are walked once, here: the header pass's
        result (a parse, or the reason there is none) picks the triage
        class, is the RSS input (only a rejected frame is read again,
        by :meth:`_extract_tuple`) and rides the row to the worker.

        Drops happen when the buffer budget is spent
        (``pool.exhausted_count``) or the chosen rx ring is full
        (``ring.drops``) — both ``imissed`` in :attr:`stats`, matching
        NIC semantics. With an admission controller attached, frames the
        ladder sheds are rejected before a buffer is taken, and a full
        ring goes through :meth:`_make_room`. Inside the loop the budget
        and each ring's room are local integers; pool, ring and port
        counters are settled once per burst.
        """
        header_pass = self._parser.header_pass
        admission = self.admission
        hasher = self.hasher
        hash_tuple = hasher.hash_tuple
        reta = hasher.reta
        reta_mask = len(reta) - 1
        pool = self.pool
        buffers_free = pool.available
        taken = given_back = refused = 0
        queues = self.queues
        ring_items = [queue.ring.items for queue in queues]
        ring_room = [queue.ring.free_space for queue in queues]
        make_row = RxRow._make
        # Per-queue counts in first-seen order, as q_ipackets keeps them.
        queued: Dict[int, int] = {}
        queued_bytes = 0
        offered = 0
        klass = None
        for packet in packets:
            offered += 1
            data = packet.data
            timestamp_ns = packet.timestamp_ns
            parsed = header_pass(data, timestamp_ns)
            if admission is not None:
                admitted, klass, data = admission.admit_frame(data, parsed)
                if not admitted:
                    continue

            if parsed.__class__ is ParsedPacket:
                rss_hash = hash_tuple(
                    parsed.src_ip, parsed.dst_ip, parsed.src_port,
                    parsed.dst_port, parsed.is_ipv6,
                )
                queue_id = reta[rss_hash & reta_mask]
            else:
                extracted = self._extract_tuple(data)
                if extracted is None:
                    rss_hash = queue_id = 0
                else:
                    rss_hash = hash_tuple(*extracted)
                    queue_id = reta[rss_hash & reta_mask]

            if not buffers_free:
                refused += 1
                continue
            taken += 1
            if ring_room[queue_id]:
                ring_room[queue_id] -= 1
                buffers_free -= 1
            else:
                # The frame holds a buffer; it, or the victim it
                # displaces, gives one straight back.
                given_back += 1
                if not self._make_room(queues[queue_id].ring, klass):
                    continue
            ring_items[queue_id].append(
                make_row((timestamp_ns, rss_hash, parsed, data, queue_id, pool))
            )
            queued[queue_id] = queued.get(queue_id, 0) + 1
            queued_bytes += len(data)
        pool.settle(taken, given_back, refused)
        for queue_id, count in queued.items():
            queues[queue_id].ring.settle_burst(count)
        accepted = self.stats.record_rx_burst(queued, queued_bytes)
        self.stats.record_miss(offered - accepted)
        return accepted

    def _make_room(self, ring: Ring, klass: Optional[str]) -> bool:
        """A frame of class *klass* found *ring* full: True if the
        admission policy displaced a queued row for it, else the drop is
        counted on the ring (and attributed by the policy)."""
        if self.admission is not None and self.admission.make_room(ring, klass):
            return True
        ring.drops += 1
        return False

    def rx_burst(self, queue_id: int, max_packets: int = DEFAULT_BURST_SIZE) -> list:
        """Poll a queue (``rte_eth_rx_burst`` equivalent)."""
        return self.queues[queue_id].rx_burst(max_packets)

    def pending(self) -> int:
        """Total rows sitting in rx rings."""
        return sum(len(queue) for queue in self.queues)

    def rebalance(self, weights) -> None:
        """Rewrite the RETA with queue shares proportional to *weights*.

        The live-reconfiguration knob real NICs expose
        (``rte_eth_dev_rss_reta_update``). Note the documented cost:
        flows in mid-handshake when the table changes can land their
        remaining packets on a different queue and be lost to
        measurement — the ablation tests quantify this.
        """
        if len(weights) != self.num_queues:
            raise ValueError("need one weight per queue")
        if any(weight < 0 for weight in weights) or sum(weights) <= 0:
            raise ValueError("weights must be non-negative and sum > 0")
        size = len(self.hasher.reta)
        total = float(sum(weights))
        # Largest-remainder apportionment keeps the table exact-size.
        shares = [weight / total * size for weight in weights]
        counts = [int(share) for share in shares]
        remainders = sorted(
            range(self.num_queues),
            key=lambda q: shares[q] - counts[q],
            reverse=True,
        )
        deficit = size - sum(counts)
        for queue in remainders[:deficit]:
            counts[queue] += 1
        # Interleave queues across the table rather than long runs.
        interleaved = []
        remaining = list(counts)
        while len(interleaved) < size:
            for queue in range(self.num_queues):
                if remaining[queue] > 0:
                    interleaved.append(queue)
                    remaining[queue] -= 1
        self.hasher.set_reta(interleaved)
