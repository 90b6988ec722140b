"""Latency measurement records — the pipeline's unit of output.

One :class:`LatencyRecord` is produced per completed TCP handshake,
exactly the tuple the paper's DPDK stage publishes on ZeroMQ: source
and destination addresses plus internal and external latency. IP
addresses are still present at this stage; the analytics tier strips
them after geo enrichment (see :mod:`repro.analytics.anonymize`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.net.addresses import int_to_ip, int_to_ipv6


class Direction(enum.Enum):
    """Which side of the tap initiated the connection.

    In the REANNZ deployment the tap sits on the international link:
    ``OUTBOUND`` means the SYN came from the internal (NZ) side.
    ``INTERNAL``/``TRANSIT`` cover flows whose both/neither endpoint
    is in the home network (hairpins and carried third-party traffic).
    """

    OUTBOUND = "outbound"
    INBOUND = "inbound"
    INTERNAL = "internal"
    TRANSIT = "transit"

    @classmethod
    def classify(
        cls, src_country: str, dst_country: str, home_country: str
    ) -> "Direction":
        """Classify a flow by its endpoints' countries."""
        src_home = src_country == home_country
        dst_home = dst_country == home_country
        if src_home and dst_home:
            return cls.INTERNAL
        if src_home:
            return cls.OUTBOUND
        if dst_home:
            return cls.INBOUND
        return cls.TRANSIT


@dataclass(frozen=True)
class LatencyRecord:
    """A completed handshake measurement.

    Attributes:
        src_ip / dst_ip: integer addresses, in connection orientation
            (src is the SYN sender).
        src_port / dst_port: TCP ports, same orientation.
        is_ipv6: address family.
        internal_ns: RTT tap↔source, ``t(ACK) − t(SYN-ACK)``.
        external_ns: RTT tap↔destination, ``t(SYN-ACK) − t(SYN)``.
        syn_ns / synack_ns / ack_ns: the three capture timestamps.
        queue_id: receive queue (== worker) that measured this flow.
        rss_hash: the symmetric RSS hash of the flow's 4-tuple.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    internal_ns: int
    external_ns: int
    syn_ns: int
    synack_ns: int
    ack_ns: int
    is_ipv6: bool = False
    queue_id: int = 0
    rss_hash: int = 0

    def __init__(
        self, src_ip, dst_ip, src_port, dst_port, internal_ns, external_ns,
        syn_ns, synack_ns, ack_ns, is_ipv6=False, queue_id=0, rss_hash=0,
    ):
        # One is built per handshake and another per decode. The
        # generated frozen ``__init__`` pays a guarded ``__setattr__`` per
        # field, three times what filling the instance dict costs — key
        # by key, in field order, which keeps the dict key-sharing (one
        # ``update`` call does not, and doubles the instance). Still
        # frozen to everyone else; tests/core/test_latency.py holds this
        # signature to the fields above.
        own = self.__dict__
        own["src_ip"] = src_ip
        own["dst_ip"] = dst_ip
        own["src_port"] = src_port
        own["dst_port"] = dst_port
        own["internal_ns"] = internal_ns
        own["external_ns"] = external_ns
        own["syn_ns"] = syn_ns
        own["synack_ns"] = synack_ns
        own["ack_ns"] = ack_ns
        own["is_ipv6"] = is_ipv6
        own["queue_id"] = queue_id
        own["rss_hash"] = rss_hash

    @property
    def total_ns(self) -> int:
        """End-to-end source↔destination RTT: internal + external."""
        return self.internal_ns + self.external_ns

    @property
    def internal_ms(self) -> float:
        return self.internal_ns / 1e6

    @property
    def external_ms(self) -> float:
        return self.external_ns / 1e6

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def src_ip_text(self) -> str:
        """Source address in text form."""
        return int_to_ipv6(self.src_ip) if self.is_ipv6 else int_to_ip(self.src_ip)

    @property
    def dst_ip_text(self) -> str:
        """Destination address in text form."""
        return int_to_ipv6(self.dst_ip) if self.is_ipv6 else int_to_ip(self.dst_ip)

    @property
    def timestamp_ns(self) -> int:
        """When the measurement completed (the ACK's capture time)."""
        return self.ack_ns

    def __str__(self) -> str:
        return (
            f"{self.src_ip_text}:{self.src_port} -> "
            f"{self.dst_ip_text}:{self.dst_port} "
            f"internal={self.internal_ms:.3f}ms external={self.external_ms:.3f}ms "
            f"total={self.total_ms:.3f}ms"
        )
