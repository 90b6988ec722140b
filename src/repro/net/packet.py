"""Whole-packet model: raw wire bytes plus capture metadata, and the
writers of every frame the traffic generator synthesizes.

A :class:`Packet` is what the simulated NIC receives and what pcap
files store: the frame bytes and a capture timestamp in nanoseconds
(Ruru records "sub-microsecond timestamps", so nanosecond resolution
is the native unit throughout the pipeline).

One pack per frame. Each frame shape the generator emits is written by
one function here, with one precompiled :class:`struct.Struct` for its
headers, Ethernet through L4: :func:`pack_tcp_frame` (one struct per
address family, an 802.1Q tag spliced in after the MACs when asked),
:func:`pack_udp_frame`, :func:`pack_icmp_frame` and
:func:`pack_arp_request`. The IPv4 header and ICMP checksums are
computed in integer arithmetic from the field values
(:mod:`repro.net.checksum`), not by re-reading packed bytes.

The header dataclasses — :class:`~repro.net.ethernet.EthernetFrame`,
:class:`~repro.net.ipv4.IPv4Header`, :class:`~repro.net.ipv6.IPv6Header`,
:class:`~repro.net.tcp.TcpHeader`, :class:`~repro.net.udp.UdpHeader`
and :class:`~repro.net.icmp.IcmpMessage` — are the parse-side model and
the packers' reference: composing them must give the same bytes
(``tests/property/test_frame_pack.py``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional

from repro.net.checksum import (
    ones_complement,
    tcp_checksum_ipv4,
    tcp_checksum_ipv6,
    word_sum,
)
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6, ETHERTYPE_VLAN, EthernetFrame
from repro.net.icmp import HEADER_LEN as ICMP_HEADER_LEN
from repro.net.ipv4 import MIN_HEADER_LEN as IPV4_HEADER_LEN
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP
from repro.net.tcp import MIN_HEADER_LEN as TCP_HEADER_LEN
from repro.net.tcp import pack_options
from repro.net.udp import HEADER_LEN as UDP_HEADER_LEN

ETHERTYPE_ARP = 0x0806
PROTO_ICMP = 1
ZERO_MAC = b"\x00" * 6
#: The MACs :func:`build_tcp_packet` writes unless told otherwise.
DEFAULT_SRC_MAC = b"\x02\x00\x00\x00\x00\x01"
DEFAULT_DST_MAC = b"\x02\x00\x00\x00\x00\x02"

# Header formats, in wire order; a frame's struct is their concatenation.
_ETHERNET = "6s6sH"  # dst MAC, src MAC, ethertype
# version/IHL, TOS, total length, id, flags/fragment, TTL, protocol, checksum, src, dst
_IPV4 = "BBHHHBBHII"
# version/class/flow label, payload length, next header, hop limit, src, dst
_IPV6 = "IHBB16s16s"
_TCP = "HHIIBBHHH"  # ports, seq, ack, data offset, flags, window, checksum, urgent
_UDP = "HHHH"  # ports, length, checksum
_ICMP = "BBH4s"  # type, code, checksum, rest of header
_ARP = "HHBBH6sI6sI"  # htype, ptype, hlen, plen, oper, sender MAC/IP, target MAC/IP

_TCP_V4 = struct.Struct("!" + _ETHERNET + _IPV4 + _TCP)
_TCP_V6 = struct.Struct("!" + _ETHERNET + _IPV6 + _TCP)
_UDP_V4 = struct.Struct("!" + _ETHERNET + _IPV4 + _UDP)
_ICMP_V4 = struct.Struct("!" + _ETHERNET + _IPV4 + _ICMP)
_ARP_FRAME = struct.Struct("!" + _ETHERNET + _ARP)
_VLAN_TAG = struct.Struct("!HH")  # TPID, TCI

_IPV4_VERSION_IHL = 0x45  # version 4, five 32-bit words
_IPV4_DONT_FRAGMENT = 0x4000
_IPV6_FIRST_WORD = 6 << 28  # version 6, traffic class 0, flow label 0


@dataclass
class Packet:
    """Raw frame bytes plus the tap's capture timestamp (ns)."""

    data: bytes = field(repr=False, default=b"")
    timestamp_ns: int = 0

    def __len__(self) -> int:
        return len(self.data)

    @property
    def timestamp_s(self) -> float:
        """Capture timestamp in floating seconds (pcap convention)."""
        return self.timestamp_ns / 1e9

    def ethernet(self) -> EthernetFrame:
        """Decode the L2 header (full parse; the hot path uses net.parser)."""
        return EthernetFrame.unpack(self.data)


def _ipv4_checksum(total_length: int, ttl: int, protocol: int, src: int, dst: int) -> int:
    # The header's ten words: version/IHL/TOS, total length, id 0, DF,
    # TTL/protocol, checksum 0, and each address (≡ its two words).
    return ones_complement(
        (_IPV4_VERSION_IHL << 8)
        + total_length
        + _IPV4_DONT_FRAGMENT
        + (ttl << 8 | protocol)
        + src
        + dst
    )


def _tagged(frame: bytes, vlan_id: int) -> bytes:
    """*frame* with an 802.1Q tag (priority 0) between the MACs and ethertype."""
    if not 0 <= vlan_id < 4096:
        raise ValueError(f"VLAN id out of range: {vlan_id}")
    return frame[:12] + _VLAN_TAG.pack(ETHERTYPE_VLAN, vlan_id) + frame[12:]


def pack_tcp_frame(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    flags: int,
    seq: int,
    ack: int,
    options: bytes,
    payload: bytes,
    ipv6: bool,
    ttl: int,
    window: int,
    vlan_id: Optional[int],
    src_mac: bytes,
    dst_mac: bytes,
) -> bytes:
    """One Ethernet/IP/TCP frame's wire bytes, its headers in one pack.

    *options* are packed and padded (:func:`repro.net.tcp.pack_options`),
    *seq*/*ack* fit 32 bits and *flags* 8. The TCP checksum is left
    zero; the IPv4 header is DF with id 0, and the IPv6 header has
    traffic class and flow label 0.
    """
    header_len = TCP_HEADER_LEN + len(options)
    segment_len = header_len + len(payload)
    if ipv6:
        frame = _TCP_V6.pack(
            dst_mac, src_mac, ETHERTYPE_IPV6,
            _IPV6_FIRST_WORD, segment_len, PROTO_TCP, ttl,
            src_ip.to_bytes(16, "big"), dst_ip.to_bytes(16, "big"),
            src_port, dst_port, seq, ack, (header_len // 4) << 4, flags,
            window, 0, 0,
        )
    else:
        total_length = IPV4_HEADER_LEN + segment_len
        frame = _TCP_V4.pack(
            dst_mac, src_mac, ETHERTYPE_IPV4,
            _IPV4_VERSION_IHL, 0, total_length, 0, _IPV4_DONT_FRAGMENT, ttl, PROTO_TCP,
            _ipv4_checksum(total_length, ttl, PROTO_TCP, src_ip, dst_ip), src_ip, dst_ip,
            src_port, dst_port, seq, ack, (header_len // 4) << 4, flags,
            window, 0, 0,
        )
    if vlan_id is not None:
        frame = _tagged(frame, vlan_id)
    return frame + options + payload


def pack_udp_frame(
    src_ip: int, dst_ip: int, src_port: int, dst_port: int, payload: bytes
) -> bytes:
    """An untagged IPv4/UDP frame, zero MACs, TTL 64 and no UDP checksum."""
    length = UDP_HEADER_LEN + len(payload)
    total_length = IPV4_HEADER_LEN + length
    return _UDP_V4.pack(
        ZERO_MAC, ZERO_MAC, ETHERTYPE_IPV4,
        _IPV4_VERSION_IHL, 0, total_length, 0, _IPV4_DONT_FRAGMENT, 64, PROTO_UDP,
        _ipv4_checksum(total_length, 64, PROTO_UDP, src_ip, dst_ip), src_ip, dst_ip,
        src_port, dst_port, length, 0,
    ) + payload


def pack_icmp_frame(
    src_ip: int, dst_ip: int, icmp_type: int, code: int, rest: bytes, payload: bytes
) -> bytes:
    """An untagged IPv4/ICMP frame, zero MACs and TTL 64.

    *rest* is the 4-byte rest of the ICMP header (echo id and sequence).
    """
    total_length = IPV4_HEADER_LEN + ICMP_HEADER_LEN + len(payload)
    checksum = ones_complement((icmp_type << 8 | code) + word_sum(rest) + word_sum(payload))
    return _ICMP_V4.pack(
        ZERO_MAC, ZERO_MAC, ETHERTYPE_IPV4,
        _IPV4_VERSION_IHL, 0, total_length, 0, _IPV4_DONT_FRAGMENT, 64, PROTO_ICMP,
        _ipv4_checksum(total_length, 64, PROTO_ICMP, src_ip, dst_ip), src_ip, dst_ip,
        icmp_type, code, checksum, rest,
    ) + payload


def pack_arp_request(sender_mac: bytes, sender_ip: int, target_ip: int) -> bytes:
    """An ARP who-has for *target_ip* (Ethernet/IPv4), in a zero-MAC frame."""
    return _ARP_FRAME.pack(
        ZERO_MAC, ZERO_MAC, ETHERTYPE_ARP,
        1, ETHERTYPE_IPV4, 6, 4, 1, sender_mac, sender_ip, ZERO_MAC, target_ip,
    )


def build_tcp_packet(
    src_ip: int,
    dst_ip: int,
    src_port: int,
    dst_port: int,
    flags: int,
    *,
    seq: int = 0,
    ack: int = 0,
    payload: bytes = b"",
    options: Optional[list] = None,
    timestamp_ns: int = 0,
    ipv6: bool = False,
    ttl: int = 64,
    window: int = 65535,
    vlan_id: Optional[int] = None,
    src_mac: bytes = DEFAULT_SRC_MAC,
    dst_mac: bytes = DEFAULT_DST_MAC,
    compute_checksum: bool = True,
) -> Packet:
    """Build a complete Ethernet/IP/TCP frame ready for the pipeline.

    It produces genuine wire-format bytes, so the parsing path in
    tests and benchmarks is identical to parsing a real capture. The
    option list is packed (at most 40 bytes), :func:`pack_tcp_frame`
    writes the frame, and the TCP checksum is filled in over the
    written segment unless *compute_checksum* is off.
    """
    packed_options = pack_options(options) if options else b""
    data = pack_tcp_frame(
        src_ip, dst_ip, src_port, dst_port, flags & 0xFF, seq & 0xFFFFFFFF, ack & 0xFFFFFFFF,
        packed_options, payload, ipv6, ttl, window, vlan_id, src_mac, dst_mac,
    )
    if compute_checksum:
        at = len(data) - (TCP_HEADER_LEN + len(packed_options) + len(payload))
        checksum = (tcp_checksum_ipv6 if ipv6 else tcp_checksum_ipv4)(src_ip, dst_ip, data[at:])
        data = data[: at + 16] + checksum.to_bytes(2, "big") + data[at + 18 :]
    return Packet(data=data, timestamp_ns=timestamp_ns)
