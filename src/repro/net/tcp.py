"""TCP header encoding and decoding (RFC 793), with options.

The handshake tracker needs flags, ports, sequence/ack numbers, and —
for the pping baseline — the TCP timestamp option (RFC 7323), so the
option list is parsed fully rather than skipped.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

TCP_FLAG_FIN = 0x01
TCP_FLAG_SYN = 0x02
TCP_FLAG_RST = 0x04
TCP_FLAG_PSH = 0x08
TCP_FLAG_ACK = 0x10
TCP_FLAG_URG = 0x20
TCP_FLAG_ECE = 0x40
TCP_FLAG_CWR = 0x80

OPT_END = 0
OPT_NOP = 1
OPT_MSS = 2
OPT_WSCALE = 3
OPT_SACK_PERMITTED = 4
OPT_SACK = 5
OPT_TIMESTAMP = 8

_HEADER = struct.Struct("!HHIIBBHHH")
MIN_HEADER_LEN = _HEADER.size  # 20


@dataclass(frozen=True)
class TcpOption:
    """A single TCP option: *kind* plus raw *data* (empty for NOP/END)."""

    kind: int
    data: bytes = b""

    def pack(self) -> bytes:
        if self.kind in (OPT_END, OPT_NOP):
            return bytes([self.kind])
        return bytes([self.kind, len(self.data) + 2]) + self.data

    @staticmethod
    def mss(value: int) -> "TcpOption":
        """Build a Maximum Segment Size option."""
        return TcpOption(OPT_MSS, struct.pack("!H", value))

    @staticmethod
    def window_scale(shift: int) -> "TcpOption":
        """Build a Window Scale option."""
        return TcpOption(OPT_WSCALE, bytes([shift]))

    @staticmethod
    def timestamp(tsval: int, tsecr: int) -> "TcpOption":
        """Build an RFC 7323 Timestamps option."""
        return TcpOption(OPT_TIMESTAMP, struct.pack("!II", tsval, tsecr))

    def as_timestamp(self) -> Optional[Tuple[int, int]]:
        """Decode as (tsval, tsecr) if this is a well-formed timestamp option."""
        if self.kind != OPT_TIMESTAMP or len(self.data) != 8:
            return None
        tsval, tsecr = struct.unpack("!II", self.data)
        return tsval, tsecr


def pack_options(options: Iterable[TcpOption]) -> bytes:
    """The option list's wire bytes, zero-padded to a 4-byte boundary."""
    raw = b"".join(option.pack() for option in options)
    if len(raw) % 4:
        raw += b"\x00" * (4 - len(raw) % 4)
    if len(raw) > 40:
        raise ValueError("TCP options exceed 40 bytes")
    return raw


@dataclass
class TcpHeader:
    """A TCP header plus payload."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    checksum: int = 0
    urgent: int = 0
    options: List[TcpOption] = field(default_factory=list)
    payload: bytes = field(default=b"", repr=False)

    # -- flag helpers ------------------------------------------------------

    @property
    def is_syn(self) -> bool:
        """Pure SYN: SYN set, ACK clear (a connection-open attempt)."""
        return bool(self.flags & TCP_FLAG_SYN) and not self.flags & TCP_FLAG_ACK

    @property
    def is_synack(self) -> bool:
        """SYN+ACK (the server's handshake reply)."""
        return bool(self.flags & TCP_FLAG_SYN) and bool(self.flags & TCP_FLAG_ACK)

    @property
    def is_ack(self) -> bool:
        """ACK set and SYN clear (includes the handshake-completing ACK)."""
        return bool(self.flags & TCP_FLAG_ACK) and not self.flags & TCP_FLAG_SYN

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & TCP_FLAG_FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & TCP_FLAG_RST)

    def flag_names(self) -> str:
        """Human-readable flag string, e.g. ``'SYN|ACK'``."""
        names = [
            (TCP_FLAG_FIN, "FIN"),
            (TCP_FLAG_SYN, "SYN"),
            (TCP_FLAG_RST, "RST"),
            (TCP_FLAG_PSH, "PSH"),
            (TCP_FLAG_ACK, "ACK"),
            (TCP_FLAG_URG, "URG"),
            (TCP_FLAG_ECE, "ECE"),
            (TCP_FLAG_CWR, "CWR"),
        ]
        present = [name for bit, name in names if self.flags & bit]
        return "|".join(present) if present else "none"

    # -- option helpers ----------------------------------------------------

    def find_option(self, kind: int) -> Optional[TcpOption]:
        """Return the first option of *kind*, or None."""
        for option in self.options:
            if option.kind == kind:
                return option
        return None

    def timestamp_option(self) -> Optional[Tuple[int, int]]:
        """Return (tsval, tsecr) if a timestamp option is present."""
        option = self.find_option(OPT_TIMESTAMP)
        return option.as_timestamp() if option else None

    # -- wire format -------------------------------------------------------

    def _packed_options(self) -> bytes:
        return pack_options(self.options)

    @property
    def header_len(self) -> int:
        """Header length in bytes including padded options."""
        return MIN_HEADER_LEN + len(self._packed_options())

    def pack(self) -> bytes:
        """Serialize to wire bytes (checksum field as stored, often 0)."""
        opts = self._packed_options()
        data_offset = (MIN_HEADER_LEN + len(opts)) // 4
        off_flags_hi = (data_offset << 4)
        header = _HEADER.pack(
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            off_flags_hi,
            self.flags & 0xFF,
            self.window,
            self.checksum,
            self.urgent,
        )
        return header + opts + self.payload

    @classmethod
    def unpack(cls, data: bytes) -> "TcpHeader":
        """Parse wire bytes, including the option list."""
        if len(data) < MIN_HEADER_LEN:
            raise ValueError(f"truncated TCP header: {len(data)} bytes")
        (
            src_port,
            dst_port,
            seq,
            ack,
            off_flags_hi,
            flags,
            window,
            checksum,
            urgent,
        ) = _HEADER.unpack_from(data)
        header_len = (off_flags_hi >> 4) * 4
        if header_len < MIN_HEADER_LEN or len(data) < header_len:
            raise ValueError(f"bad TCP data offset: {header_len}")
        options = cls._parse_options(data[MIN_HEADER_LEN:header_len])
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            checksum=checksum,
            urgent=urgent,
            options=options,
            payload=bytes(data[header_len:]),
        )

    @staticmethod
    def _parse_options(raw: bytes) -> List[TcpOption]:
        options: List[TcpOption] = []
        i = 0
        while i < len(raw):
            kind = raw[i]
            if kind == OPT_END:
                break
            if kind == OPT_NOP:
                options.append(TcpOption(OPT_NOP))
                i += 1
                continue
            if i + 1 >= len(raw):
                break  # truncated option; stop rather than raise on padding
            length = raw[i + 1]
            if length < 2 or i + length > len(raw):
                break
            options.append(TcpOption(kind, bytes(raw[i + 2:i + length])))
            i += length
        return options
