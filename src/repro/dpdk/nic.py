"""Simulated multi-queue NIC port with hardware RSS classification.

A real NIC extracts the L3/L4 tuple in hardware, Toeplitz-hashes it,
picks an rx queue through the RETA, and DMAs the frame into an mbuf
whose ``packet_type`` says what it found. :class:`NicPort` does that
sequence in software, a burst at a time: one header pass per frame
(:meth:`PacketParser.parse <repro.net.parser.PacketParser.parse>`),
whose result is the RSS input, the admission controller's triage class
and — riding the mbuf — the worker's input; then the
:class:`~repro.dpdk.rss.RssHasher`, an mbuf allocation, and a bounded
per-queue ring. Workers drain queues with :meth:`RxQueue.rx_burst`,
DPDK-style.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Optional, Tuple

from repro.dpdk.mbuf import MbufPool, MbufPoolExhausted
from repro.dpdk.port_stats import PortStats
from repro.dpdk.ring import Ring
from repro.dpdk.rss import RssHasher, SYMMETRIC_RSS_KEY
from repro.net.packet import Packet
from repro.net.parser import PacketParser, ParsedPacket, ParseError

_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

DEFAULT_BURST_SIZE = 32


class RxQueue:
    """One receive queue: a bounded ring of mbufs plus its id."""

    def __init__(self, queue_id: int, capacity: int = 4096):
        self.queue_id = queue_id
        self.ring: Ring = Ring(capacity=capacity, name=f"rxq{queue_id}")

    def rx_burst(self, max_packets: int = DEFAULT_BURST_SIZE) -> list:
        """Poll up to *max_packets* mbufs off this queue."""
        return self.ring.dequeue_burst(max_packets)

    def __len__(self) -> int:
        return len(self.ring)


class NicPort:
    """A port with RSS spreading frames across ``num_queues`` rx queues.

    Args:
        num_queues: receive queue count (one worker core each in Ruru).
        rss_key: the Toeplitz key; defaults to the symmetric key so
            both flow directions share a queue.
        mbuf_pool: buffer pool; a default pool is created if omitted.
        queue_capacity: ring slots per queue.
        admission: optional overload controller; when set, frames pass
            its priority triage before allocation and a full ring may
            displace its newest payload frame for a handshake frame.
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

        Each frame's headers are walked once, here: the parse (or the
        reason there is none) picks the triage class, is the RSS input
        — a parsed IPv4 segment hashes its own tuple, which is the tuple
        :meth:`_extract_tuple` reads at the same offsets; IPv6, UDP and
        rejected frames keep :meth:`_extract_tuple` — and rides the mbuf
        to the worker.

        Drops happen when the mbuf pool is exhausted or the chosen rx
        ring is full — both counted in :attr:`stats` as ``imissed``,
        matching NIC semantics. With an admission controller attached,
        frames the ladder sheds are rejected before allocation, and a
        full ring first tries to displace its newest payload frame to
        make room for an incoming handshake frame; either way the
        controller attributes the loss per class and stage. Port
        counters are settled once per burst.
        """
        parse = self._parser.parse
        admission = self.admission
        hasher = self.hasher
        hash_ipv4 = hasher.hash_ipv4_tuple
        reta = hasher.reta
        reta_mask = len(reta) - 1
        alloc = self.pool.alloc
        queues = self.queues
        # Per-queue counts in first-seen order, as q_ipackets keeps them.
        queued: Dict[int, int] = {}
        queued_bytes = 0
        offered = 0
        klass = None
        for packet in packets:
            offered += 1
            data = packet.data
            timestamp_ns = packet.timestamp_ns
            try:
                parsed = parse(data, timestamp_ns)
            except ParseError as exc:
                parsed = exc.reason
            if admission is not None:
                admitted, klass, data = admission.admit_frame(data, parsed)
                if not admitted:
                    continue

            if parsed.__class__ is ParsedPacket and not parsed.is_ipv6:
                rss_hash = hash_ipv4(
                    parsed.src_ip, parsed.dst_ip, parsed.src_port, parsed.dst_port
                )
                queue_id = reta[rss_hash & reta_mask]
            else:
                extracted = self._extract_tuple(data)
                if extracted is None:
                    rss_hash = queue_id = 0
                else:
                    rss_hash = hasher.hash_tuple(*extracted)
                    queue_id = reta[rss_hash & reta_mask]

            try:
                mbuf = alloc(data, timestamp_ns, rss_hash, queue_id, parsed)
            except MbufPoolExhausted:
                continue

            ring = queues[queue_id].ring
            if ring.is_full:
                victim = None
                if admission is not None and admission.should_displace(klass):
                    victim = ring.displace_newest(admission.is_displaceable)
                if victim is None:
                    mbuf.free()
                    if admission is not None:
                        admission.record_ring_drop(klass)
                    continue
                victim.free()
                admission.record_ring_displacement()
            ring.enqueue(mbuf)
            queued[queue_id] = queued.get(queue_id, 0) + 1
            queued_bytes += len(data)
        accepted = self.stats.record_rx_burst(queued, queued_bytes)
        self.stats.record_miss(offered - accepted)
        return accepted

    def rx_burst(self, queue_id: int, max_packets: int = DEFAULT_BURST_SIZE) -> list:
        """Poll a queue (``rte_eth_rx_burst`` equivalent)."""
        return self.queues[queue_id].rx_burst(max_packets)

    def pending(self) -> int:
        """Total mbufs sitting in rx rings."""
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
