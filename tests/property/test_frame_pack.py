"""The frame packers against the header dataclasses they stand in for.

``repro.net.packet`` writes every synthesized frame with one struct per
frame shape and computes checksums arithmetically. The header
dataclasses are the reference: for any addresses, ports, sequence
numbers (masked above 2**32), flags, option lists, payloads, TTL,
window, VLAN tag, MACs and checksum setting, the packer's bytes must
equal composing ``TcpHeader`` → ``IPv4Header``/``IPv6Header`` →
``EthernetFrame`` (``UdpHeader``/``IcmpMessage`` for noise), and
refusals must be the same ``ValueError``.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.checksum import tcp_checksum_ipv4, tcp_checksum_ipv6
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_IPV6, EthernetFrame
from repro.net.icmp import IcmpMessage
from repro.net.ipv4 import IPv4Header, PROTO_TCP, PROTO_UDP
from repro.net.ipv6 import IPv6Header
from repro.net.packet import (
    ETHERTYPE_ARP,
    PROTO_ICMP,
    build_tcp_packet,
    pack_arp_request,
    pack_icmp_frame,
    pack_udp_frame,
)
from repro.net.tcp import OPT_NOP, TcpHeader, TcpOption
from repro.net.udp import UdpHeader
from repro.traffic.flows import FlowSpec, FlowSynthesizer, timestamp_options
from repro.traffic.noise import NoiseGenerator

NS_PER_S = 1_000_000_000

u8 = st.integers(0, 0xFF)
u16 = st.integers(0, 0xFFFF)
u32 = st.integers(0, 0xFFFFFFFF)
u128 = st.integers(0, (1 << 128) - 1)
macs = st.binary(min_size=6, max_size=6)

option = st.one_of(
    st.builds(TcpOption.timestamp, u32, u32),
    st.just(TcpOption(OPT_NOP)),
    st.builds(TcpOption.mss, u16),
    st.builds(TcpOption.window_scale, st.integers(0, 14)),
)


def _options_len(options):
    return sum(len(o.pack()) for o in options)


fitting_options = st.lists(option, max_size=8).filter(lambda opts: _options_len(opts) <= 40)


def reference_tcp_frame(
    src_ip, dst_ip, src_port, dst_port, flags, *, seq, ack, payload, options,
    ipv6, ttl, window, vlan_id, src_mac, dst_mac, compute_checksum,
):
    """The frame as the header dataclasses compose it."""
    segment = TcpHeader(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        options=list(options),
        payload=payload,
    ).pack()
    if compute_checksum:
        checksum = (tcp_checksum_ipv6 if ipv6 else tcp_checksum_ipv4)(src_ip, dst_ip, segment)
        segment = segment[:16] + checksum.to_bytes(2, "big") + segment[18:]
    if ipv6:
        ip = IPv6Header(
            src=src_ip, dst=dst_ip, next_header=PROTO_TCP, hop_limit=ttl, payload=segment
        ).pack()
    else:
        ip = IPv4Header(
            src=src_ip, dst=dst_ip, protocol=PROTO_TCP, ttl=ttl, payload=segment
        ).pack()
    return EthernetFrame(
        dst_mac=dst_mac,
        src_mac=src_mac,
        ethertype=ETHERTYPE_IPV6 if ipv6 else ETHERTYPE_IPV4,
        vlan_id=vlan_id,
        payload=ip,
    ).pack()


@st.composite
def tcp_frames(draw, options=fitting_options, vlan_ids=st.none() | st.integers(0, 4095)):
    ipv6 = draw(st.booleans())
    address = u128 if ipv6 else u32
    return dict(
        src_ip=draw(address),
        dst_ip=draw(address),
        src_port=draw(u16),
        dst_port=draw(u16),
        flags=draw(st.integers(0, 0xFFF)),
        seq=draw(st.integers(0, 1 << 40)),
        ack=draw(st.integers(0, 1 << 40)),
        payload=draw(st.binary(max_size=1500)),
        options=draw(options),
        ipv6=ipv6,
        ttl=draw(u8),
        window=draw(u16),
        vlan_id=draw(vlan_ids),
        src_mac=draw(macs),
        dst_mac=draw(macs),
        compute_checksum=draw(st.booleans()),
    )


def _split(fields):
    fields = dict(fields)
    positional = [fields.pop(k) for k in ("src_ip", "dst_ip", "src_port", "dst_port", "flags")]
    return positional, fields


class TestTcpFrame:
    @settings(max_examples=150, deadline=None)
    @given(tcp_frames())
    def test_equals_the_dataclass_composition(self, frame):
        positional, keywords = _split(frame)
        packet = build_tcp_packet(*positional, timestamp_ns=7, **keywords)
        assert packet.data == reference_tcp_frame(*positional, **keywords)
        assert packet.timestamp_ns == 7

    @settings(max_examples=30, deadline=None)
    @given(tcp_frames(vlan_ids=st.integers(-50, -1) | st.integers(4096, 70000)))
    def test_out_of_range_vlan_is_the_same_refusal(self, frame):
        positional, keywords = _split(frame)
        with pytest.raises(ValueError) as packed:
            build_tcp_packet(*positional, **keywords)
        with pytest.raises(ValueError) as composed:
            reference_tcp_frame(*positional, **keywords)
        assert str(packed.value) == str(composed.value)

    @settings(max_examples=30, deadline=None)
    @given(tcp_frames(
        options=st.lists(option, min_size=4, max_size=14).filter(
            lambda opts: _options_len(opts) > 40
        )
    ))
    def test_too_many_option_bytes_is_the_same_refusal(self, frame):
        positional, keywords = _split(frame)
        with pytest.raises(ValueError) as packed:
            build_tcp_packet(*positional, **keywords)
        with pytest.raises(ValueError) as composed:
            reference_tcp_frame(*positional, **keywords)
        assert str(packed.value) == str(composed.value) == "TCP options exceed 40 bytes"


class TestSynthesizer:
    @settings(max_examples=100)
    @given(u32, u32)
    def test_option_bytes_are_timestamp_nop_nop(self, tsval, tsecr):
        reference = TcpOption.timestamp(tsval, tsecr).pack() + TcpOption(OPT_NOP).pack() * 2
        assert timestamp_options(tsval, tsecr) == reference

    @settings(max_examples=25, deadline=None)
    @given(
        ipv6=st.booleans(),
        exchanges=st.integers(0, 2),
        rst=st.booleans(),
        syn_lost=st.booleans(),
        seed=st.integers(0, 1 << 16),
    )
    def test_every_frame_is_its_fields_composed(self, ipv6, exchanges, rst, syn_lost, seed):
        address = (1 << 100) if ipv6 else (1 << 24)
        spec = FlowSpec(
            start_ns=NS_PER_S,
            client_ip=address + 1,
            server_ip=address + 2,
            client_port=40000,
            server_port=443,
            internal_rtt_ms=3.0,
            external_rtt_ms=40.0,
            data_exchanges=exchanges,
            rst_after_synack=rst,
            syn_lost_beyond_tap=syn_lost,
            is_ipv6=ipv6,
        )
        frames = FlowSynthesizer(rng=random.Random(seed)).synthesize(spec)
        for packet in frames:
            ethernet = EthernetFrame.unpack(packet.data)
            ip = (IPv6Header if ipv6 else IPv4Header).unpack(ethernet.payload)
            tcp = TcpHeader.unpack(ip.payload)
            assert tcp.checksum == 0  # left to offload, as a tap behind one sees it
            assert packet.data == reference_tcp_frame(
                ip.src, ip.dst, tcp.src_port, tcp.dst_port, tcp.flags,
                seq=tcp.seq, ack=tcp.ack, payload=tcp.payload, options=tcp.options,
                ipv6=ipv6, ttl=64, window=65535, vlan_id=None,
                src_mac=ethernet.src_mac, dst_mac=ethernet.dst_mac, compute_checksum=False,
            )


def reference_udp_frame(src_ip, dst_ip, src_port, dst_port, payload):
    segment = UdpHeader(src_port=src_port, dst_port=dst_port, payload=payload).pack()
    ip = IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_UDP, payload=segment).pack()
    return EthernetFrame(payload=ip).pack()


def reference_icmp_frame(src_ip, dst_ip, icmp_type, code, rest, payload):
    message = IcmpMessage(icmp_type=icmp_type, code=code, rest=rest, payload=payload).pack()
    ip = IPv4Header(src=src_ip, dst=dst_ip, protocol=PROTO_ICMP, payload=message).pack()
    return EthernetFrame(payload=ip).pack()


def reference_arp_request(sender_mac, sender_ip, target_ip):
    body = struct.pack("!HHBBH", 1, ETHERTYPE_IPV4, 6, 4, 1)
    body += sender_mac + sender_ip.to_bytes(4, "big") + b"\x00" * 6 + target_ip.to_bytes(4, "big")
    return EthernetFrame(ethertype=ETHERTYPE_ARP, payload=body).pack()


class TestNoiseFrames:
    @settings(max_examples=60, deadline=None)
    @given(u32, u32, u16, u16, st.binary(max_size=1500))
    def test_udp(self, src, dst, sport, dport, payload):
        assert pack_udp_frame(src, dst, sport, dport, payload) == reference_udp_frame(
            src, dst, sport, dport, payload
        )

    @settings(max_examples=60, deadline=None)
    @given(u32, u32, u8, u8, st.binary(min_size=4, max_size=4), st.binary(max_size=1500))
    def test_icmp(self, src, dst, icmp_type, code, rest, payload):
        assert pack_icmp_frame(src, dst, icmp_type, code, rest, payload) == (
            reference_icmp_frame(src, dst, icmp_type, code, rest, payload)
        )

    @settings(max_examples=30)
    @given(macs, u32, u32)
    def test_arp(self, sender_mac, sender_ip, target_ip):
        assert pack_arp_request(sender_mac, sender_ip, target_ip) == (
            reference_arp_request(sender_mac, sender_ip, target_ip)
        )

    def test_every_noise_frame_is_its_fields_composed(self):
        kinds = set()
        for packet in NoiseGenerator(duration_ns=2 * NS_PER_S, seed=9).packets():
            ethernet = EthernetFrame.unpack(packet.data)
            if ethernet.ethertype == ETHERTYPE_ARP:
                body = ethernet.payload
                reference = reference_arp_request(
                    body[8:14], int.from_bytes(body[14:18], "big"),
                    int.from_bytes(body[24:28], "big"),
                )
                kinds.add("arp")
            else:
                ip = IPv4Header.unpack(ethernet.payload)
                if ip.protocol == PROTO_UDP:
                    udp = UdpHeader.unpack(ip.payload)
                    reference = reference_udp_frame(
                        ip.src, ip.dst, udp.src_port, udp.dst_port, udp.payload
                    )
                    kinds.add("udp")
                else:
                    icmp = IcmpMessage.unpack(ip.payload)
                    reference = reference_icmp_frame(
                        ip.src, ip.dst, icmp.icmp_type, icmp.code, icmp.rest, icmp.payload
                    )
                    kinds.add(f"icmp-{icmp.icmp_type}")
            assert packet.data == reference
        assert kinds == {"arp", "udp", "icmp-0", "icmp-8", "icmp-11"}
