"""pcapng reader/writer tests."""

import io
import struct

import pytest

from repro.net.packet import Packet, build_tcp_packet
from repro.net.pcap import PcapError, PcapWriter
from repro.net.pcapng import (
    BYTE_ORDER_MAGIC,
    EPB_TYPE,
    SHB_TYPE,
    PcapngReader,
    PcapngWriter,
    open_capture,
)
from repro.net.tcp import TCP_FLAG_SYN


def _sample_packets(count=5):
    return [
        build_tcp_packet(i + 1, i + 2, 1000 + i, 443, TCP_FLAG_SYN,
                         timestamp_ns=i * 1_234_567_891)
        for i in range(count)
    ]


class TestRoundtrip:
    def test_nanosecond_roundtrip(self, tmp_path):
        path = tmp_path / "trace.pcapng"
        packets = _sample_packets()
        with PcapngWriter(path) as writer:
            for packet in packets:
                writer.write(packet)
        with PcapngReader(path) as reader:
            restored = list(reader)
        assert [p.data for p in restored] == [p.data for p in packets]
        assert [p.timestamp_ns for p in restored] == [
            p.timestamp_ns for p in packets
        ]

    def test_linktype_exposed(self, tmp_path):
        path = tmp_path / "t.pcapng"
        with PcapngWriter(path) as writer:
            writer.write(Packet(data=b"x", timestamp_ns=0))
        reader = PcapngReader(path)
        list(reader)
        assert reader.linktype == 1

    def test_file_object_io(self):
        buffer = io.BytesIO()
        writer = PcapngWriter(buffer)
        for packet in _sample_packets(3):
            writer.write(packet)
        buffer.seek(0)
        assert len(list(PcapngReader(buffer))) == 3

    def test_unknown_blocks_skipped(self, tmp_path):
        path = tmp_path / "t.pcapng"
        buffer = io.BytesIO()
        writer = PcapngWriter(buffer)
        writer.write(Packet(data=b"first", timestamp_ns=7))
        # Hand-append an unknown block type (0x0BAD) then another EPB.
        body = b"\x00" * 8
        total = 12 + len(body)
        buffer.write(struct.pack("<II", 0x0BAD, total) + body + struct.pack("<I", total))
        writer.write(Packet(data=b"second", timestamp_ns=8))
        buffer.seek(0)
        restored = list(PcapngReader(buffer))
        assert [p.data for p in restored] == [b"first", b"second"]

    def test_microsecond_resolution_honoured(self):
        # Hand-build a file declaring if_tsresol = 6 (microseconds).
        buffer = io.BytesIO()
        shb_body = struct.pack("<IHHq", BYTE_ORDER_MAGIC, 1, 0, -1)
        total = 12 + len(shb_body)
        buffer.write(struct.pack("<II", SHB_TYPE, total) + shb_body
                     + struct.pack("<I", total))
        options = struct.pack("<HH", 9, 1) + b"\x06\x00\x00\x00"
        options += struct.pack("<HH", 0, 0)
        idb_body = struct.pack("<HHI", 1, 0, 65535) + options
        total = 12 + len(idb_body)
        buffer.write(struct.pack("<II", 1, total) + idb_body
                     + struct.pack("<I", total))
        epb_body = struct.pack("<IIIII", 0, 0, 1500, 3, 3) + b"abc\x00"
        total = 12 + len(epb_body)
        buffer.write(struct.pack("<II", EPB_TYPE, total) + epb_body
                     + struct.pack("<I", total))
        buffer.seek(0)
        packet = next(iter(PcapngReader(buffer)))
        assert packet.timestamp_ns == 1500 * 1_000  # µs ticks -> ns


class TestErrors:
    @pytest.mark.parametrize("size", [0, 1, 3])
    def test_capture_too_short_for_a_magic_number(self, tmp_path, size):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\x0a\x0d\x0d"[:size])
        with pytest.raises(PcapError, match="too short"):
            open_capture(path)

    def test_not_pcapng(self):
        with pytest.raises(PcapError):
            PcapngReader(io.BytesIO(b"\xd4\xc3\xb2\xa1" + b"\x00" * 30))

    def test_bad_byte_order_magic(self):
        buffer = io.BytesIO(
            struct.pack("<II", SHB_TYPE, 28) + b"\xde\xad\xbe\xef" + b"\x00" * 20
        )
        with pytest.raises(PcapError):
            PcapngReader(buffer)

    def test_trailer_mismatch(self):
        buffer = io.BytesIO()
        writer = PcapngWriter(buffer)
        writer.write(Packet(data=b"x", timestamp_ns=0))
        corrupted = bytearray(buffer.getvalue())
        corrupted[-4:] = b"\xff\xff\xff\xff"
        reader = PcapngReader(io.BytesIO(bytes(corrupted)))
        with pytest.raises(PcapError):
            list(reader)


class TestOpenCapture:
    def test_sniffs_both_formats(self, tmp_path):
        classic = tmp_path / "a.pcap"
        nextgen = tmp_path / "b.pcapng"
        packets = _sample_packets(2)
        with PcapWriter(classic) as writer:
            for packet in packets:
                writer.write(packet)
        with PcapngWriter(nextgen) as writer:
            for packet in packets:
                writer.write(packet)
        for path in (classic, nextgen):
            with open_capture(path) as reader:
                assert len(list(reader)) == 2
