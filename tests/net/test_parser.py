"""Fast pre-parser tests: the pipeline's hot path."""

import pytest

from repro.net.addresses import ip_to_int, ipv6_to_int
from repro.net.ethernet import EthernetFrame
from repro.net.ipv4 import IPv4Header
from repro.net.packet import build_tcp_packet
from repro.net.parser import PacketParser, ParsedPacket, ParseError
from repro.net.tcp import (
    TCP_FLAG_ACK,
    TCP_FLAG_FIN,
    TCP_FLAG_RST,
    TCP_FLAG_SYN,
    TcpOption,
)


@pytest.fixture()
def fast_parser():
    return PacketParser()


class TestIpv4Parsing:
    def test_extracts_tuple_and_flags(self, fast_parser):
        packet = build_tcp_packet(
            ip_to_int("10.0.0.1"), ip_to_int("10.0.0.2"), 40000, 443,
            TCP_FLAG_SYN, seq=111, timestamp_ns=999,
        )
        parsed = fast_parser.parse(packet.data, packet.timestamp_ns)
        assert parsed.src_ip == ip_to_int("10.0.0.1")
        assert parsed.dst_ip == ip_to_int("10.0.0.2")
        assert parsed.src_port == 40000
        assert parsed.dst_port == 443
        assert parsed.seq == 111
        assert parsed.is_syn and not parsed.is_synack and not parsed.is_ack
        assert parsed.timestamp_ns == 999
        assert not parsed.is_ipv6

    def test_flag_properties_exclusive(self, fast_parser):
        synack = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_SYN | TCP_FLAG_ACK)
        parsed = fast_parser.parse(synack.data, 0)
        assert parsed.is_synack and not parsed.is_syn and not parsed.is_ack
        rst = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_RST)
        assert fast_parser.parse(rst.data, 0).is_rst

    def test_payload_len(self, fast_parser):
        packet = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_ACK, payload=b"x" * 123)
        assert fast_parser.parse(packet.data, 0).payload_len == 123

    def test_vlan_tagged(self, fast_parser):
        packet = build_tcp_packet(5, 6, 7, 8, TCP_FLAG_SYN, vlan_id=300)
        parsed = fast_parser.parse(packet.data, 0)
        assert parsed.src_ip == 5
        assert parsed.dst_port == 8

    def test_rejects_fragment(self, fast_parser):
        ip = IPv4Header(src=1, dst=2, more_fragments=True, payload=b"\x00" * 20)
        frame = EthernetFrame(payload=ip.pack()).pack()
        with pytest.raises(ParseError) as err:
            fast_parser.parse(frame, 0)
        assert err.value.reason == "fragment"

    def test_rejects_udp(self, fast_parser):
        ip = IPv4Header(src=1, dst=2, protocol=17, payload=b"\x00" * 8)
        frame = EthernetFrame(payload=ip.pack()).pack()
        with pytest.raises(ParseError) as err:
            fast_parser.parse(frame, 0)
        assert err.value.reason == "not-tcp"

    def test_rejects_arp(self, fast_parser):
        frame = EthernetFrame(ethertype=0x0806, payload=b"\x00" * 28).pack()
        with pytest.raises(ParseError) as err:
            fast_parser.parse(frame, 0)
        assert err.value.reason == "not-ip"

    def test_rejects_truncated(self, fast_parser):
        packet = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_SYN)
        with pytest.raises(ParseError) as err:
            fast_parser.parse(packet.data[:30], 0)
        assert err.value.reason == "truncated"


class TestIpv6Parsing:
    def test_extracts_tuple(self, fast_parser):
        src, dst = ipv6_to_int("2001:db8::1"), ipv6_to_int("2001:db8::2")
        packet = build_tcp_packet(src, dst, 1000, 2000, TCP_FLAG_SYN, ipv6=True)
        parsed = fast_parser.parse(packet.data, 0)
        assert parsed.is_ipv6
        assert parsed.src_ip == src
        assert parsed.dst_ip == dst
        assert parsed.src_port == 1000


class TestTimestampExtraction:
    def test_disabled_by_default(self, fast_parser):
        packet = build_tcp_packet(
            1, 2, 3, 4, TCP_FLAG_ACK, options=[TcpOption.timestamp(10, 20)]
        )
        parsed = fast_parser.parse(packet.data, 0)
        assert parsed.tsval is None

    def test_extracted_when_enabled(self):
        ts_parser = PacketParser(extract_timestamps=True)
        packet = build_tcp_packet(
            1, 2, 3, 4, TCP_FLAG_ACK, options=[TcpOption.timestamp(10, 20)]
        )
        parsed = ts_parser.parse(packet.data, 0)
        assert (parsed.tsval, parsed.tsecr) == (10, 20)

    def test_no_option_yields_none(self):
        ts_parser = PacketParser(extract_timestamps=True)
        packet = build_tcp_packet(1, 2, 3, 4, TCP_FLAG_ACK)
        parsed = ts_parser.parse(packet.data, 0)
        assert parsed.tsval is None and parsed.tsecr is None


class TestFourTuple:
    def test_four_tuple_order(self, fast_parser):
        packet = build_tcp_packet(9, 8, 7, 6, TCP_FLAG_SYN)
        parsed = fast_parser.parse(packet.data, 0)
        assert parsed.four_tuple() == (9, 7, 8, 6)


class TestParsedPacket:
    """The value every layer behind the port reads; built by keyword, as
    the tests and the offline tools build it."""

    FIELDS = dict(
        src_ip=1, dst_ip=2, src_port=3, dst_port=4, flags=TCP_FLAG_ACK,
        seq=5, ack=6, payload_len=7, timestamp_ns=8,
    )

    def test_keyword_construction_and_defaults(self):
        parsed = ParsedPacket(**self.FIELDS)
        assert [getattr(parsed, name) for name in self.FIELDS] == list(
            self.FIELDS.values()
        )
        assert parsed.is_ipv6 is False
        assert parsed.tsval is None and parsed.tsecr is None
        assert parsed.four_tuple() == (1, 3, 2, 4)
        assert parsed == ParsedPacket(**self.FIELDS)
        assert parsed != ParsedPacket(**{**self.FIELDS, "seq": 9})

    @pytest.mark.parametrize(
        "flags, true_of",
        [
            (TCP_FLAG_SYN, {"is_syn"}),
            (TCP_FLAG_SYN | TCP_FLAG_ACK, {"is_synack"}),
            (TCP_FLAG_ACK, {"is_ack"}),
            (TCP_FLAG_ACK | TCP_FLAG_FIN, {"is_ack", "is_fin"}),
            (TCP_FLAG_RST, {"is_rst"}),
            (TCP_FLAG_RST | TCP_FLAG_ACK, {"is_rst", "is_ack"}),
            (0, set()),
        ],
    )
    def test_flag_properties(self, flags, true_of):
        parsed = ParsedPacket(**{**self.FIELDS, "flags": flags})
        names = ("is_syn", "is_synack", "is_ack", "is_rst", "is_fin")
        assert {name for name in names if getattr(parsed, name)} == true_of
        assert all(isinstance(getattr(parsed, name), bool) for name in names)

    def test_immutable(self):
        parsed = ParsedPacket(**self.FIELDS)
        with pytest.raises(AttributeError):
            parsed.flags = TCP_FLAG_SYN
        with pytest.raises(AttributeError):
            parsed.extra = 1
