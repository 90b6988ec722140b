"""The port's one header pass against its references.

``PacketParser.parse`` tries one fixed-offset decode before the general
walk, and ``NicPort`` hashes a parsed IPv4 segment's own tuple instead of
extracting it again. Both shortcuts must be invisible: for workload-
shaped frames and hostile mutations of them, ``parse`` equals the walk
called directly (same packet, or same reject reason *and* message, never
a leaked ``struct.error``/``IndexError``), and the port's hash and queue
equal the bit-serial Toeplitz oracle over ``_extract_tuple``'s tuple.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpdk.nic import NicPort
from repro.dpdk.rss import make_symmetric_key, toeplitz_hash
from repro.net.ethernet import ETHERTYPE_IPV6, EthernetFrame
from repro.net.icmp import IcmpMessage
from repro.net.ipv4 import IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.ipv6 import IPv6Header
from repro.net.packet import Packet
from repro.net.parser import PacketParser, ParsedPacket, ParseError
from repro.net.tcp import OPT_TIMESTAMP, TcpHeader, TcpOption
from repro.net.udp import UdpHeader

QUEUES = 4
# Long enough for the 36-byte IPv6 tuple; cycling the symmetric key is
# what RssHasher does to extend it.
KEY = make_symmetric_key(80)

u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u128 = st.integers(0, (1 << 128) - 1)


@st.composite
def tcp_segments(draw):
    options = []
    if draw(st.booleans()):
        options.append(TcpOption(OPT_TIMESTAMP, struct.pack("!II", draw(u32), draw(u32))))
    return TcpHeader(
        src_port=draw(u16),
        dst_port=draw(u16),
        seq=draw(u32),
        ack=draw(u32),
        flags=draw(st.integers(0, 0xFF)),
        options=options,
        payload=draw(st.binary(max_size=80)),
    ).pack()


def _vlan_tagged(frame: bytes, tags: int) -> bytes:
    for tag in range(tags):
        frame = frame[:12] + struct.pack("!HH", 0x8100, 100 + tag) + frame[12:]
    return frame


@st.composite
def frames(draw):
    """What a tap sees: mostly plain IPv4 TCP, plus every other shape."""
    shape = draw(
        st.sampled_from(
            ["tcp4", "tcp4", "tcp4", "vlan", "ip-options", "fragment",
             "tcp6", "tcp6-ext", "udp4", "udp6", "icmp", "arp"]
        )
    )
    if shape == "arp":
        body = draw(st.binary(min_size=28, max_size=28))
        return EthernetFrame(ethertype=0x0806, payload=body).pack()
    if shape in ("tcp6", "tcp6-ext", "udp6"):
        if shape == "udp6":
            next_header, payload = PROTO_UDP, UdpHeader(draw(u16), draw(u16), payload=b"dns").pack()
        else:
            next_header, payload = PROTO_TCP, draw(tcp_segments())
        if shape == "tcp6-ext":
            for ext in draw(st.lists(st.sampled_from([0, 43, 60, 44]), min_size=1, max_size=3)):
                payload = bytes([next_header, 0]) + b"\x00" * 6 + payload
                next_header = ext
        ip = IPv6Header(src=draw(u128), dst=draw(u128), next_header=next_header, payload=payload)
        return EthernetFrame(ethertype=ETHERTYPE_IPV6, payload=ip.pack()).pack()
    header = IPv4Header(src=draw(u32), dst=draw(u32))
    if shape == "udp4":
        header.protocol = PROTO_UDP
        header.payload = UdpHeader(draw(u16), draw(u16), payload=b"dns").pack()
    elif shape == "icmp":
        header.protocol = 1
        header.payload = IcmpMessage().pack()
    else:
        header.payload = draw(tcp_segments())
    if shape == "ip-options":
        header.options = b"\x01" * draw(st.integers(1, 40))
    if shape == "fragment":
        header.more_fragments = draw(st.booleans())
        header.fragment_offset = draw(st.integers(0 if header.more_fragments else 1, 0x1FFF))
    frame = EthernetFrame(payload=header.pack()).pack()
    if shape == "vlan":
        frame = _vlan_tagged(frame, draw(st.integers(1, 3)))
    return frame


@st.composite
def mutated_frames(draw):
    data = bytearray(draw(frames()))
    mutation = draw(
        st.sampled_from(["none", "flip", "truncate", "total-length", "data-offset", "pad"])
    )
    if mutation == "flip":
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, min(59, len(data) - 1)))] = draw(st.integers(0, 255))
    elif mutation == "truncate":
        del data[draw(st.integers(0, len(data))):]
    elif mutation == "total-length" and len(data) >= 18:
        data[16:18] = struct.pack("!H", draw(u16))
    elif mutation == "data-offset" and len(data) >= 47:
        data[46] = draw(st.integers(0, 15)) << 4 | data[46] & 0x0F
    elif mutation == "pad":
        data += b"\x00" * draw(st.integers(1, 10))
    return bytes(data)


def _outcome(decode, data):
    """A decode's result, or why it has none: (reason, message)."""
    try:
        return decode(data, 1234)
    except ParseError as exc:
        return exc.reason, str(exc)


class TestFixedOffsetDecodeEqualsTheWalk:
    @given(data=mutated_frames(), timestamps=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_packet_or_same_reason_and_message(self, data, timestamps):
        parser = PacketParser(extract_timestamps=timestamps)
        assert _outcome(parser.parse, data) == _outcome(parser._walk, data)


class TestPortHashesWhatExtractTupleSees:
    @given(data=mutated_frames())
    @settings(max_examples=300, deadline=None)
    def test_hash_queue_and_parse_on_the_mbuf(self, data):
        nic = NicPort(num_queues=QUEUES)
        assert nic.receive(Packet(data=data, timestamp_ns=1234))
        (mbuf,) = [m for queue in nic.queues for m in queue.rx_burst(4)]
        extracted = NicPort._extract_tuple(data)
        if extracted is None:
            expected_hash = 0
        else:
            src, dst, sport, dport, is_ipv6 = extracted
            width = 16 if is_ipv6 else 4
            expected_hash = toeplitz_hash(
                KEY,
                src.to_bytes(width, "big") + dst.to_bytes(width, "big")
                + struct.pack("!HH", sport, dport),
            )
        expected_queue = nic.hasher.queue_for_hash(expected_hash) if extracted else 0
        assert (mbuf.rss_hash, mbuf.queue_id) == (expected_hash, expected_queue)
        outcome = _outcome(PacketParser()._walk, data)
        assert mbuf.parsed == (
            outcome if isinstance(outcome, ParsedPacket) else outcome[0]
        )
