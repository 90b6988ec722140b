"""Non-TCP background noise: the rest of what a real tap sees.

"The Ruru pipeline analyzes all traffic going through the NIC" — and
a real 10G link is not all TCP. This injector adds the realistic
non-measurable mix so the pre-parse filter's drop path carries real
load in tests and benches:

* UDP — DNS-sized request/response pairs and larger QUIC-like flows,
* ICMP — echo request/reply pairs and the odd TTL-exceeded,
* ARP — link-local chatter (not even IP).

Noise packets carry correct wire formats; the pipeline must classify
and drop every one of them (counted per reason) without disturbing
TCP measurement.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Iterator, List

from repro.geo.builder import SyntheticGeoPlan
from repro.net.icmp import TYPE_ECHO_REPLY, TYPE_ECHO_REQUEST, TYPE_TIME_EXCEEDED
from repro.net.packet import Packet, pack_arp_request, pack_icmp_frame, pack_udp_frame

NS_PER_S = 1_000_000_000


def _udp_packet(src, dst, sport, dport, payload, t_ns):
    return Packet(data=pack_udp_frame(src, dst, sport, dport, payload), timestamp_ns=t_ns)


def _icmp_packet(src, dst, icmp_type, rest, payload, t_ns):
    return Packet(data=pack_icmp_frame(src, dst, icmp_type, 0, rest, payload), timestamp_ns=t_ns)


def _arp_packet(t_ns, rng):
    # A who-has broadcast from a random sender for a random target.
    data = pack_arp_request(
        rng.getrandbits(48).to_bytes(6, "big"), rng.getrandbits(32), rng.getrandbits(32)
    )
    return Packet(data=data, timestamp_ns=t_ns)


@dataclass
class NoiseGenerator:
    """Generates a time-ordered non-TCP packet stream.

    Attributes:
        plan: address plan to draw realistic endpoints from.
        duration_ns / start_ns: time window.
        udp_rate_per_s: UDP datagrams per second (pairs count as 2).
        icmp_rate_per_s: ICMP messages per second.
        arp_rate_per_s: ARP broadcasts per second.
        seed: determinism.
    """

    plan: SyntheticGeoPlan = field(default_factory=SyntheticGeoPlan)
    duration_ns: int = 10 * NS_PER_S
    start_ns: int = 0
    udp_rate_per_s: float = 40.0
    icmp_rate_per_s: float = 4.0
    arp_rate_per_s: float = 2.0
    seed: int = 5

    def packets(self) -> Iterator[Packet]:
        """The merged noise stream, timestamp-ordered."""
        rng = random.Random(self.seed)
        events: List[Packet] = []
        end_ns = self.start_ns + self.duration_ns

        def rand_host():
            return self.plan.random_host(rng.randrange(len(self.plan.cities)), rng)

        # UDP request/response pairs (DNS-shaped) plus one-way bulk.
        count = int(self.udp_rate_per_s * self.duration_ns / NS_PER_S / 2)
        for _ in range(count):
            t = rng.randint(self.start_ns, end_ns - 1)
            client, server = rand_host(), rand_host()
            sport = rng.randint(1024, 65535)
            dport = rng.choice([53, 123, 443, 51820])
            req_len = rng.randint(32, 96)
            resp_len = rng.randint(64, 1200)
            events.append(_udp_packet(
                client, server, sport, dport, b"q" * req_len, t
            ))
            events.append(_udp_packet(
                server, client, dport, sport, b"r" * resp_len,
                t + rng.randint(1_000_000, 200_000_000),
            ))

        # ICMP echo pairs and occasional TTL-exceeded.
        count = int(self.icmp_rate_per_s * self.duration_ns / NS_PER_S / 2)
        for i in range(count):
            t = rng.randint(self.start_ns, end_ns - 1)
            a, b = rand_host(), rand_host()
            echo = struct.pack("!HH", i & 0xFFFF, 1)  # identifier, sequence
            events.append(_icmp_packet(a, b, TYPE_ECHO_REQUEST, echo, b"ping" * 8, t))
            events.append(_icmp_packet(
                b, a, TYPE_ECHO_REPLY, echo, b"ping" * 8,
                t + rng.randint(1_000_000, 300_000_000),
            ))
            if rng.random() < 0.1:
                events.append(_icmp_packet(
                    rand_host(), a, TYPE_TIME_EXCEEDED, b"\x00" * 4, b"\x00" * 28, t + 1
                ))

        # ARP chatter.
        count = int(self.arp_rate_per_s * self.duration_ns / NS_PER_S)
        for _ in range(count):
            events.append(_arp_packet(rng.randint(self.start_ns, end_ns - 1), rng))

        events.sort(key=lambda p: p.timestamp_ns)
        return iter(events)


def merge_streams(*streams) -> Iterator[Packet]:
    """Merge timestamp-ordered packet streams into one ordered stream."""
    import heapq

    return (
        packet
        for packet in heapq.merge(*streams, key=lambda p: p.timestamp_ns)
    )
