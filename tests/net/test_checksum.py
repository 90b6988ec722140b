"""Checksum tests against hand-computed and RFC examples."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.addresses import ip_to_int
from repro.net.checksum import internet_checksum, tcp_checksum_ipv4, tcp_checksum_ipv6


def reference_checksum(data: bytes) -> int:
    """RFC 1071 word by word: sum the 16-bit words, fold the carries."""
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # The classic example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_padded(self):
        # Odd-length input is padded with a zero byte.
        assert internet_checksum(b"\x12") == internet_checksum(b"\x12\x00")

    def test_verification_property(self):
        # A message with its checksum appended must checksum to zero.
        data = b"\x45\x00\x00\x28\xab\xcd\x00\x00\x40\x06"
        checksum = internet_checksum(data)
        full = data + struct.pack("!H", checksum)
        assert internet_checksum(full) == 0

    def test_carry_folding(self):
        # Many 0xffff words force repeated carry folds.
        assert internet_checksum(b"\xff\xff" * 1000) == 0


    def test_both_zeros_of_ones_complement(self):
        # A non-zero sum that is a multiple of 0xFFFF folds to 0xFFFF
        # ("negative zero"), so its checksum is 0; an all-zero sum is 0xFFFF.
        assert internet_checksum(b"\xff\xff") == 0
        assert internet_checksum(b"\x80\x00\x7f\xff") == 0
        assert internet_checksum(b"\x00" * 7) == 0xFFFF


class TestChecksumAgainstReference:
    @settings(max_examples=200)
    @given(st.binary(max_size=1600))
    def test_any_bytes(self, data):
        assert internet_checksum(data) == reference_checksum(data)

    @settings(max_examples=50)
    @given(st.integers(0, 799).map(lambda n: 2 * n + 1), st.binary(min_size=1600, max_size=1600))
    def test_odd_lengths(self, length, pool):
        data = pool[:length]
        assert internet_checksum(data) == reference_checksum(data)

    @settings(max_examples=50)
    @given(st.integers(0, 1600), st.sampled_from([0x00, 0xFF]))
    def test_uniform_bytes(self, length, byte):
        data = bytes([byte]) * length
        assert internet_checksum(data) == reference_checksum(data)


class TestTcpChecksum:
    def test_ipv4_pseudo_header_changes_result(self):
        segment = b"\x00" * 20
        a = tcp_checksum_ipv4(ip_to_int("10.0.0.1"), ip_to_int("10.0.0.2"), segment)
        b = tcp_checksum_ipv4(ip_to_int("10.0.0.1"), ip_to_int("10.0.0.3"), segment)
        assert a != b

    def test_ipv6_checksummed_segment_verifies(self):
        src = 0x20010DB8000000000000000000000001
        dst = 0x20010DB8000000000000000000000002
        segment = bytearray(b"\x30\x39\x01\xbb" + b"\x00" * 16 + b"v6-data")
        checksum = tcp_checksum_ipv6(src, dst, bytes(segment))
        segment[16:18] = checksum.to_bytes(2, "big")
        pseudo = (
            src.to_bytes(16, "big")
            + dst.to_bytes(16, "big")
            + struct.pack("!IBBBB", len(segment), 0, 0, 0, 6)
        )
        assert internet_checksum(pseudo + bytes(segment)) == 0

    def test_checksummed_segment_verifies(self):
        src, dst = ip_to_int("1.1.1.1"), ip_to_int("2.2.2.2")
        segment = bytearray(b"\x30\x39\x01\xbb" + b"\x00" * 16 + b"hello")
        checksum = tcp_checksum_ipv4(src, dst, bytes(segment))
        segment[16:18] = checksum.to_bytes(2, "big")
        pseudo = struct.pack("!IIBBH", src, dst, 0, 6, len(segment))
        assert internet_checksum(pseudo + bytes(segment)) == 0
