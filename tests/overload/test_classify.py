"""Priority classification of raw frames at NIC admission."""

from repro.net.packet import build_tcp_packet
from repro.net.tcp import (
    TCP_FLAG_ACK,
    TCP_FLAG_FIN,
    TCP_FLAG_PSH,
    TCP_FLAG_RST,
    TCP_FLAG_SYN,
)
from repro.overload import HANDSHAKE, OTHER, PAYLOAD, classify_frame

SRC, DST = 0x0A000001, 0x0A000002


def frame(flags, payload=b"", **kwargs):
    return build_tcp_packet(
        SRC, DST, 12345, 443, flags, payload=payload, **kwargs
    ).data


def padded(flags):
    """A 54-byte segment as a real tap delivers it: zero-padded to
    Ethernet's 60-byte minimum, the IP total length unchanged."""
    data = frame(flags)
    assert len(data) == 54
    return data + b"\x00" * 6


class TestClassifyFrame:
    def test_syn_is_handshake(self):
        assert classify_frame(frame(TCP_FLAG_SYN)) == HANDSHAKE

    def test_synack_is_handshake(self):
        assert classify_frame(frame(TCP_FLAG_SYN | TCP_FLAG_ACK)) == HANDSHAKE

    def test_pure_ack_is_handshake(self):
        assert classify_frame(frame(TCP_FLAG_ACK)) == HANDSHAKE

    def test_fin_ack_is_handshake(self):
        assert classify_frame(frame(TCP_FLAG_FIN | TCP_FLAG_ACK)) == HANDSHAKE

    def test_data_segment_is_payload(self):
        data = frame(TCP_FLAG_PSH | TCP_FLAG_ACK, payload=b"x" * 512)
        assert classify_frame(data) == PAYLOAD

    def test_syn_with_payload_stays_handshake(self):
        # TCP fast-open style: the SYN is what the tracker needs.
        data = frame(TCP_FLAG_SYN, payload=b"x" * 64)
        assert classify_frame(data) == HANDSHAKE

    def test_vlan_tagged_payload(self):
        data = frame(TCP_FLAG_PSH | TCP_FLAG_ACK, payload=b"y" * 100, vlan_id=42)
        assert classify_frame(data) == PAYLOAD

    def test_ipv6_segments(self):
        src6 = 0x20010DB8 << 96
        syn = build_tcp_packet(
            src6, src6 + 1, 1, 2, TCP_FLAG_SYN, ipv6=True
        ).data
        data = build_tcp_packet(
            src6, src6 + 1, 1, 2, TCP_FLAG_PSH | TCP_FLAG_ACK,
            payload=b"z" * 80, ipv6=True,
        ).data
        assert classify_frame(syn) == HANDSHAKE
        assert classify_frame(data) == PAYLOAD

    def test_ethernet_padding_is_not_payload(self):
        # The handshake-completing ACK is the packet Ruru measures; the
        # class follows the IP datagram, not the captured length.
        assert classify_frame(padded(TCP_FLAG_ACK)) == HANDSHAKE
        assert classify_frame(padded(TCP_FLAG_RST)) == HANDSHAKE
        assert classify_frame(padded(TCP_FLAG_SYN | TCP_FLAG_ACK)) == HANDSHAKE

    def test_non_ip_is_other(self):
        arp = b"\xff" * 12 + b"\x08\x06" + b"\x00" * 28
        assert classify_frame(arp) == OTHER

    def test_runt_frame_is_other(self):
        assert classify_frame(b"\x00" * 10) == OTHER

    def test_truncated_handshake_still_classifies(self):
        # The headers-only rung truncates admitted handshake frames;
        # a re-classification of the truncated bytes must agree, since
        # payload length is computed from the *captured* frame length.
        data = frame(TCP_FLAG_ACK)
        assert classify_frame(data[:64]) == HANDSHAKE
