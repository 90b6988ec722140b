"""Binary wire codec for records crossing socket boundaries.

Two encodings:

* **latency records** — the DPDK stage's output (addresses + the two
  latency components + handshake timestamps), a fixed layout per
  address family;
* **enriched measurements** — the analytics stage's output after geo/AS
  lookup and anonymization (no addresses, variable-length strings).

Both carry a version byte so the formats can evolve; decoders reject
unknown versions loudly.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING

from repro.core.latency import LatencyRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analytics.enricher import EnrichedMeasurement

LATENCY_VERSION = 1
# v2 appends a flags byte after the version (bit 0: degraded — the
# record crossed an open enrichment breaker un-enriched); v1 payloads
# are still decoded, with degraded implicitly False.
ENRICHED_VERSION = 2
_ENRICHED_V1 = 1

_FLAG_IPV6 = 0x01
_ENRICHED_FLAG_DEGRADED = 0x01

# After the 2-byte preamble (version, flags) and the two addresses:
# ports, latencies, timestamps, queue id, rss hash.
_TAIL = "HHQQQQQHI"
_FIXED_TAIL = struct.Struct("!" + _TAIL)
# A whole record per address family, read in one unpack: an IPv4
# address is one word, an IPv6 address a high and a low quad.
_LATENCY_V4 = struct.Struct("!BBII" + _TAIL)
_LATENCY_V6 = struct.Struct("!BBQQQQ" + _TAIL)


class CodecError(ValueError):
    """Raised on malformed or version-mismatched payloads."""


def encode_latency_record(record: LatencyRecord) -> bytes:
    """Serialize a :class:`LatencyRecord` to wire bytes."""
    flags = _FLAG_IPV6 if record.is_ipv6 else 0
    addr_len = 16 if record.is_ipv6 else 4
    parts = [
        bytes([LATENCY_VERSION, flags]),
        record.src_ip.to_bytes(addr_len, "big"),
        record.dst_ip.to_bytes(addr_len, "big"),
        _FIXED_TAIL.pack(
            record.src_port,
            record.dst_port,
            record.internal_ns,
            record.external_ns,
            record.syn_ns,
            record.synack_ns,
            record.ack_ns,
            record.queue_id,
            record.rss_hash,
        ),
    ]
    return b"".join(parts)


def decode_latency_record(data: bytes) -> LatencyRecord:
    """Parse wire bytes back into a :class:`LatencyRecord`."""
    if len(data) < 2:
        raise CodecError("latency record too short")
    if data[0] != LATENCY_VERSION:
        raise CodecError(f"unknown latency record version {data[0]}")
    is_ipv6 = bool(data[1] & _FLAG_IPV6)
    layout = _LATENCY_V6 if is_ipv6 else _LATENCY_V4
    if len(data) != layout.size:
        raise CodecError(f"latency record length {len(data)} != {layout.size}")
    if is_ipv6:
        _, _, src_high, src_low, dst_high, dst_low, *tail = layout.unpack(data)
        src_ip = src_high << 64 | src_low
        dst_ip = dst_high << 64 | dst_low
    else:
        _, _, src_ip, dst_ip, *tail = layout.unpack(data)
    (
        src_port,
        dst_port,
        internal_ns,
        external_ns,
        syn_ns,
        synack_ns,
        ack_ns,
        queue_id,
        rss_hash,
    ) = tail
    return LatencyRecord(
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        internal_ns,
        external_ns,
        syn_ns,
        synack_ns,
        ack_ns,
        is_ipv6,
        queue_id,
        rss_hash,
    )


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CodecError("string field too long")
    return struct.pack("!H", len(raw)) + raw


_ENRICHED_FIXED = struct.Struct("!QQQddddII")


def encode_enriched(measurement: "EnrichedMeasurement") -> bytes:
    """Serialize an anonymized, geo-enriched measurement."""
    flags = _ENRICHED_FLAG_DEGRADED if measurement.degraded else 0
    parts = [
        bytes([ENRICHED_VERSION, flags]),
        _ENRICHED_FIXED.pack(
            measurement.timestamp_ns,
            measurement.internal_ns,
            measurement.external_ns,
            measurement.src_lat,
            measurement.src_lon,
            measurement.dst_lat,
            measurement.dst_lon,
            measurement.src_asn,
            measurement.dst_asn,
        ),
        _pack_str(measurement.src_country),
        _pack_str(measurement.src_city),
        _pack_str(measurement.dst_country),
        _pack_str(measurement.dst_city),
    ]
    return b"".join(parts)


def decode_enriched(data: bytes) -> "EnrichedMeasurement":
    """Parse wire bytes back into an EnrichedMeasurement."""
    from repro.analytics.enricher import EnrichedMeasurement

    if not data:
        raise CodecError("empty enriched payload")
    version = data[0]
    degraded = False
    if version == ENRICHED_VERSION:
        if len(data) < 2:
            raise CodecError("truncated enriched flags")
        degraded = bool(data[1] & _ENRICHED_FLAG_DEGRADED)
        offset = 2
    elif version == _ENRICHED_V1:
        offset = 1
    else:
        raise CodecError(f"unknown enriched version {version}")
    size = len(data)
    if offset + _ENRICHED_FIXED.size > size:
        raise CodecError("truncated enriched fixed fields")
    (
        timestamp_ns,
        internal_ns,
        external_ns,
        src_lat,
        src_lon,
        dst_lat,
        dst_lon,
        src_asn,
        dst_asn,
    ) = _ENRICHED_FIXED.unpack_from(data, offset)
    offset += _ENRICHED_FIXED.size
    # Four length-prefixed strings, read in place (a helper call per
    # tag cost as much as the tag).
    tags = []
    for _ in range(4):
        start = offset + 2
        if start > size:
            raise CodecError("truncated string length")
        offset = start + (data[offset] << 8 | data[offset + 1])
        if offset > size:
            raise CodecError("truncated string body")
        try:
            tags.append(data[start:offset].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CodecError(f"invalid utf-8 in string field: {exc}") from exc
    if offset != size:
        raise CodecError("trailing bytes after enriched record")
    src_country, src_city, dst_country, dst_city = tags
    return EnrichedMeasurement(
        timestamp_ns,
        internal_ns,
        external_ns,
        src_country,
        src_city,
        src_lat,
        src_lon,
        src_asn,
        dst_country,
        dst_city,
        dst_lat,
        dst_lon,
        dst_asn,
        degraded,
    )
