"""The port's one header pass against its references.

``PacketParser.header_pass`` tries one fixed-offset decode before the
general walk, ``parse`` is that pass with a raise, and ``NicPort`` hashes
a parsed segment's own tuple instead of extracting it again. All three
must be invisible: for workload-shaped frames and hostile mutations of
them, ``parse`` equals the walk called directly (same packet, or same
reject reason *and* message, never a leaked ``struct.error``/
``IndexError``), the non-raising pass returns that packet or that
reason, and the port's hash and queue equal the bit-serial Toeplitz
oracle over the tuple the pass read — over ``_extract_tuple``'s for a
frame the pass rejected.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpdk.nic import NicPort
from repro.dpdk.rss import make_symmetric_key
from repro.net.ethernet import ETHERTYPE_IPV6, EthernetFrame
from repro.net.icmp import IcmpMessage
from repro.net.ipv4 import IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.ipv6 import IPv6Header
from repro.net.packet import Packet, build_tcp_packet
from repro.net.parser import PacketParser, ParsedPacket, ParseError
from repro.net.tcp import OPT_TIMESTAMP, TCP_FLAG_SYN, TcpHeader, TcpOption
from repro.net.udp import UdpHeader
from tests.conftest import toeplitz_of_tuple

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


def _walk_outcome(parser, data):
    """The same, of the walk called directly: it returns its rejection
    as ``(reason, detail)``, and ``ParseError`` words the message."""
    walked = parser._walk(data, 1234)
    if isinstance(walked, ParsedPacket):
        return walked
    return walked[0], str(ParseError(*walked))


class TestFixedOffsetDecodeEqualsTheWalk:
    @given(data=mutated_frames(), timestamps=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_packet_or_same_reason_and_message(self, data, timestamps):
        parser = PacketParser(extract_timestamps=timestamps)
        assert _outcome(parser.parse, data) == _walk_outcome(parser, data)

    @given(data=mutated_frames(), timestamps=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_the_non_raising_pass_is_parse_without_the_raise(self, data, timestamps):
        # Neither form lets a struct.error / IndexError out: hypothesis
        # would report it as this test's failure.
        parser = PacketParser(extract_timestamps=timestamps)
        outcome = _outcome(parser.parse, data)
        passed = parser.header_pass(data, 1234)
        if isinstance(outcome, ParsedPacket):
            assert passed == outcome and type(passed) is ParsedPacket
        else:
            reason, message = outcome
            assert passed == reason and type(passed) is str
            assert message.split(":")[0] == reason


    def test_parse_raises_with_the_messages_it_always_had(self):
        # Pinned from the commit before the walk stopped raising.
        syn = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_SYN).data
        v6 = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_SYN, ipv6=True).data
        cases = {
            b"\x00" * 9: "truncated: ethernet header",
            b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28: "not-ip: ethertype 0x0806",
            syn[:23] + b"\x11" + syn[24:]: "not-tcp: ipv4 proto 17",
            syn[:12] + b"\x81\x00\x00\x01" * 3 + syn[12:]: "vlan-depth: >2 tags",
            syn[:20] + b"\x20\x00" + syn[22:]: "fragment: ipv4",
            syn[:40]: "truncated: tcp header",
            syn[:46] + b"\x10" + syn[47:]: "truncated: tcp options",
            v6[:20] + b"\x2c" + v6[21:]: "fragment: ipv6",
            v6[:20] + b"\x11" + v6[21:]: "not-tcp: ipv6 next-header 17",
        }
        for data, message in cases.items():
            with pytest.raises(ParseError) as raised:
                PacketParser().parse(data, 0)
            assert str(raised.value) == message
            assert raised.value.reason == message.split(":")[0]
            assert PacketParser().header_pass(data, 0) == raised.value.reason


class TestPortHashesWhatExtractTupleSees:
    """The port hashes the tuple its header pass read, and reads a
    rejected frame's again with ``_extract_tuple``; either way hash and
    queue are the bit-serial oracle's."""

    @given(data=mutated_frames())
    @settings(max_examples=300, deadline=None)
    def test_hash_queue_and_parse_on_the_mbuf(self, data):
        nic = NicPort(num_queues=QUEUES)
        assert nic.receive(Packet(data=data, timestamp_ns=1234))
        (row,) = [r for queue in nic.queues for r in queue.rx_burst(4)]
        outcome = _walk_outcome(PacketParser(), data)
        if isinstance(outcome, ParsedPacket):
            assert row.parsed == outcome
            hashed = outcome[:4] + (outcome.is_ipv6,)
        else:
            assert row.parsed == outcome[0]
            hashed = NicPort._extract_tuple(data)
        expected_hash = toeplitz_of_tuple(KEY, *hashed) if hashed else 0
        expected_queue = nic.hasher.queue_for_hash(expected_hash) if hashed else 0
        assert (row.rss_hash, row.queue_id) == (expected_hash, expected_queue)
        assert (row.timestamp_ns, row.data) == (1234, data)

    @given(src=u128, dst=u128, sport=u16, dport=u16, segment=tcp_segments(),
           chain=st.lists(st.sampled_from([0, 43, 60]), min_size=1, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_ipv6_behind_extension_headers_is_hashed_like_any_flow(
        self, src, dst, sport, dport, segment, chain
    ):
        """The one output that differs from the parent: ``_extract_tuple``
        reads ``next_header`` once, so such a segment used to get hash 0,
        queue 0 and immunity from flow sampling, while its extension-less
        reply was hashed — the flow's two directions could part."""
        def frame(a, b, a_port, b_port, extensions):
            next_header = PROTO_TCP
            payload = struct.pack("!HH", a_port, b_port) + segment[4:]
            for ext in extensions:
                payload = bytes([next_header, 0]) + b"\x00" * 6 + payload
                next_header = ext
            ip = IPv6Header(src=a, dst=b, next_header=next_header, payload=payload)
            return EthernetFrame(ethertype=ETHERTYPE_IPV6, payload=ip.pack()).pack()

        nic = NicPort(num_queues=QUEUES)
        forward = frame(src, dst, sport, dport, chain)
        assert NicPort._extract_tuple(forward) is None
        assert nic.receive(Packet(data=forward, timestamp_ns=1))
        assert nic.receive(Packet(data=frame(dst, src, dport, sport, []), timestamp_ns=2))
        there, back = [r for queue in nic.queues for r in queue.rx_burst(4)]
        assert isinstance(there.parsed, ParsedPacket)
        expected = toeplitz_of_tuple(KEY, src, dst, sport, dport, True)
        assert there.rss_hash == back.rss_hash == expected
        assert there.queue_id == back.queue_id
