"""RFC 1071 Internet checksum and TCP pseudo-header checksums.

Ruru's DPDK stage does not verify checksums (the NIC does). What must
carry a valid checksum is computed here: every IPv4 header and ICMP
message the generator writes, and the TCP segments that tests and
fixtures build with :func:`repro.net.packet.build_tcp_packet`'s
default ``compute_checksum=True``. The synthesized flows of
:mod:`repro.traffic` leave the TCP checksum zero, as a capture taken
behind checksum offload does.

The sum is taken in integer arithmetic: since 2**16 ≡ 1 (mod 0xFFFF),
the one's-complement sum of a run of 16-bit words is the run read as
one big-endian integer, modulo 0xFFFF (RFC 1071 §2).
"""

from __future__ import annotations

import struct


def word_sum(data: bytes) -> int:
    """An integer congruent to the sum of *data*'s 16-bit words (mod 0xFFFF).

    Odd-length data is zero-padded. The result is zero only when every
    word is, so a sum of such terms still tells :func:`ones_complement`
    which of one's complement's two zeros it stands for.
    """
    total = int.from_bytes(data, "big")
    return total << 8 if len(data) % 2 else total


def ones_complement(total: int) -> int:
    """The checksum field for a word *total* (any integer ≡ the sum mod 0xFFFF)."""
    if not total:
        return 0xFFFF
    # A non-zero sum folds to 0xFFFF, not 0, when it is a multiple of 0xFFFF.
    return 0xFFFF - (total % 0xFFFF or 0xFFFF)


def internet_checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement checksum of *data* (RFC 1071)."""
    return ones_complement(word_sum(data))


def _pseudo_header_v4(src: int, dst: int, proto: int, length: int) -> bytes:
    return struct.pack("!IIBBH", src, dst, 0, proto, length)


def _pseudo_header_v6(src: int, dst: int, proto: int, length: int) -> bytes:
    return (
        src.to_bytes(16, "big")
        + dst.to_bytes(16, "big")
        + struct.pack("!IBBBB", length, 0, 0, 0, proto)
    )


def tcp_checksum_ipv4(src: int, dst: int, segment: bytes) -> int:
    """TCP checksum over the IPv4 pseudo-header and *segment*.

    *segment* is the full TCP header+payload with its checksum field
    zeroed; *src*/*dst* are integer IPv4 addresses.
    """
    pseudo = _pseudo_header_v4(src, dst, 6, len(segment))
    return internet_checksum(pseudo + segment)


def tcp_checksum_ipv6(src: int, dst: int, segment: bytes) -> int:
    """TCP checksum over the IPv6 pseudo-header and *segment*."""
    pseudo = _pseudo_header_v6(src, dst, 6, len(segment))
    return internet_checksum(pseudo + segment)
