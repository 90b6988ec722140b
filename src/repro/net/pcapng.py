"""pcapng (pcap Next Generation) trace reader and writer.

Modern capture tooling writes pcapng rather than classic pcap; a
reproduction meant to ingest real captures needs both. This
implements the blocks a packet trace actually uses:

* Section Header Block (SHB, 0x0A0D0D0A) with the byte-order magic,
* Interface Description Block (IDB, 0x01) with ``if_tsresol`` —
  the writer sets nanosecond resolution, the reader honours whatever
  power-of-10 resolution the file declares,
* Enhanced Packet Block (EPB, 0x06) carrying the frames,
* Simple Packet Block (SPB, 0x03) read support (no timestamps).

Unknown block types are skipped, as the spec requires.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import BinaryIO, Iterator, Optional, Union

from repro.net.packet import Packet
from repro.net.pcap import PcapError

SHB_TYPE = 0x0A0D0D0A
IDB_TYPE = 0x00000001
SPB_TYPE = 0x00000003
EPB_TYPE = 0x00000006

BYTE_ORDER_MAGIC = 0x1A2B3C4D
LINKTYPE_ETHERNET = 1

_OPT_ENDOFOPT = 0
_OPT_IF_TSRESOL = 9


def _pad4(length: int) -> int:
    return (4 - length % 4) % 4


class PcapngWriter:
    """Streams packets into a single-section, single-interface file."""

    def __init__(
        self,
        path: Union[str, Path, BinaryIO],
        linktype: int = LINKTYPE_ETHERNET,
        snaplen: int = 65535,
    ):
        if hasattr(path, "write"):
            self._file: BinaryIO = path  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(path, "wb")
            self._owns_file = True
        self.packets_written = 0
        self._write_shb()
        self._write_idb(linktype, snaplen)

    def _write_block(self, block_type: int, body: bytes) -> None:
        total = 12 + len(body) + _pad4(len(body))
        self._file.write(struct.pack("<II", block_type, total))
        self._file.write(body)
        self._file.write(b"\x00" * _pad4(len(body)))
        self._file.write(struct.pack("<I", total))

    def _write_shb(self) -> None:
        body = struct.pack("<IHHq", BYTE_ORDER_MAGIC, 1, 0, -1)
        self._write_block(SHB_TYPE, body)

    def _write_idb(self, linktype: int, snaplen: int) -> None:
        # if_tsresol option: 9 -> nanoseconds.
        options = struct.pack("<HH", _OPT_IF_TSRESOL, 1) + b"\x09" + b"\x00" * 3
        options += struct.pack("<HH", _OPT_ENDOFOPT, 0)
        body = struct.pack("<HHI", linktype, 0, snaplen) + options
        self._write_block(IDB_TYPE, body)

    def write(self, packet: Packet) -> None:
        """Append one Enhanced Packet Block."""
        timestamp = packet.timestamp_ns
        header = struct.pack(
            "<IIIII",
            0,  # interface id
            (timestamp >> 32) & 0xFFFFFFFF,
            timestamp & 0xFFFFFFFF,
            len(packet.data),
            len(packet.data),
        )
        self._write_block(EPB_TYPE, header + packet.data)
        self.packets_written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "PcapngWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PcapngReader:
    """Iterates packets out of a pcapng file (EPB and SPB blocks)."""

    def __init__(self, path: Union[str, Path, BinaryIO]):
        if hasattr(path, "read"):
            self._file: BinaryIO = path  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(path, "rb")
            self._owns_file = True
        self._endian = "<"
        self._tsresol_ns = 1_000  # default per spec: microseconds
        self.linktype: Optional[int] = None
        self._read_section_header()

    # -- low-level block reading ----------------------------------------

    def _read_exact(self, count: int) -> bytes:
        data = self._file.read(count)
        if len(data) < count:
            raise PcapError("truncated pcapng block")
        return data

    def _read_section_header(self) -> None:
        block_type_raw = self._read_exact(4)
        if struct.unpack("<I", block_type_raw)[0] != SHB_TYPE:
            raise PcapError("not a pcapng file (no SHB)")
        length_raw = self._read_exact(4)
        magic_raw = self._read_exact(4)
        if struct.unpack("<I", magic_raw)[0] == BYTE_ORDER_MAGIC:
            self._endian = "<"
        elif struct.unpack(">I", magic_raw)[0] == BYTE_ORDER_MAGIC:
            self._endian = ">"
        else:
            raise PcapError("bad pcapng byte-order magic")
        total_length = struct.unpack(self._endian + "I", length_raw)[0]
        if total_length < 28 or total_length % 4:
            raise PcapError(f"bad SHB length {total_length}")
        # Consumed so far: type + length + magic (12 bytes). Skip the
        # rest of the body, then the trailing length.
        self._read_exact(total_length - 16)
        self._read_exact(4)

    def _next_block(self):
        header = self._file.read(8)
        if len(header) == 0:
            return None
        if len(header) < 8:
            raise PcapError("truncated pcapng block header")
        block_type, total_length = struct.unpack(self._endian + "II", header)
        if total_length < 12 or total_length % 4:
            raise PcapError(f"bad block length {total_length}")
        body = self._read_exact(total_length - 12)
        trailer = struct.unpack(self._endian + "I", self._read_exact(4))[0]
        if trailer != total_length:
            raise PcapError("pcapng block trailer mismatch")
        return block_type, body

    # -- block interpretation ----------------------------------------------

    def _handle_idb(self, body: bytes) -> None:
        if len(body) < 8:
            raise PcapError("truncated IDB")
        self.linktype = struct.unpack_from(self._endian + "H", body, 0)[0]
        offset = 8
        while offset + 4 <= len(body):
            code, length = struct.unpack_from(self._endian + "HH", body, offset)
            offset += 4
            if code == _OPT_ENDOFOPT:
                break
            value = body[offset:offset + length]
            offset += length + _pad4(length)
            if code == _OPT_IF_TSRESOL and length >= 1:
                resolution = value[0]
                if resolution & 0x80:
                    # Power-of-2 resolution: convert to ns approximately.
                    self._tsresol_ns = max(1, 10**9 >> (resolution & 0x7F))
                else:
                    self._tsresol_ns = max(1, 10 ** (9 - resolution))

    def _handle_epb(self, body: bytes) -> Packet:
        if len(body) < 20:
            raise PcapError("truncated EPB")
        (_iface, ts_high, ts_low, captured_len, _original_len) = struct.unpack_from(
            self._endian + "IIIII", body, 0
        )
        data = body[20:20 + captured_len]
        if len(data) < captured_len:
            raise PcapError("truncated EPB payload")
        ticks = (ts_high << 32) | ts_low
        return Packet(data=bytes(data), timestamp_ns=ticks * self._tsresol_ns)

    # -- iteration --------------------------------------------------------------

    def read_packet(self) -> Optional[Packet]:
        """Next packet, or None at end of file."""
        while True:
            block = self._next_block()
            if block is None:
                return None
            block_type, body = block
            if block_type == IDB_TYPE:
                self._handle_idb(body)
            elif block_type == EPB_TYPE:
                return self._handle_epb(body)
            elif block_type == SPB_TYPE:
                if len(body) < 4:
                    raise PcapError("truncated SPB")
                length = struct.unpack_from(self._endian + "I", body)[0]
                return Packet(data=bytes(body[4:4 + length]), timestamp_ns=0)
            elif block_type == SHB_TYPE:
                raise PcapError("multi-section pcapng files are not supported")
            # Any other block type: skip, per spec.

    def __iter__(self) -> Iterator[Packet]:
        return self

    def __next__(self) -> Packet:
        packet = self.read_packet()
        if packet is None:
            raise StopIteration
        return packet

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "PcapngReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_capture(path: Union[str, Path]):
    """Open either a classic pcap or a pcapng by magic sniffing."""
    from repro.net.pcap import PcapReader

    with open(path, "rb") as probe:
        magic = probe.read(4)
    if len(magic) < 4:
        raise PcapError(f"not a capture: {len(magic)} bytes, too short for a magic number")
    if struct.unpack("<I", magic)[0] == SHB_TYPE:
        return PcapngReader(path)
    return PcapReader(path)
