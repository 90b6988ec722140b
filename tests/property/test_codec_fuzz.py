"""Fuzz the wire codec: damaged payloads must fail as CodecError.

The decoders sit directly behind the message bus, where the chaos
profiles (and real networks) deliver truncated and bit-flipped frames.
The contract under test: for *any* mangling of a valid payload — or
arbitrary junk — decoding either succeeds or raises
:class:`CodecError`. It must never leak ``struct.error``,
``IndexError`` or ``UnicodeDecodeError``, because the analytics
service's DLQ routing catches codec failures, not implementation
details.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.enricher import EnrichedMeasurement
from repro.core.latency import LatencyRecord
from repro.mq.codec import (
    CodecError,
    decode_enriched,
    decode_latency_record,
    encode_enriched,
    encode_latency_record,
)

VALID_RECORD = encode_latency_record(
    LatencyRecord(
        src_ip=0x0A010203,
        dst_ip=0x14040506,
        src_port=40000,
        dst_port=443,
        internal_ns=10_000_000,
        external_ns=140_000_000,
        syn_ns=1_000_000_000,
        synack_ns=1_140_000_000,
        ack_ns=1_150_000_000,
        queue_id=3,
        rss_hash=0xDEADBEEF,
    )
)

VALID_ENRICHED = encode_enriched(
    EnrichedMeasurement(
        timestamp_ns=123_456_789,
        internal_ns=5_000_000,
        external_ns=130_000_000,
        src_country="NZ",
        src_city="Auckland",
        src_lat=-36.85,
        src_lon=174.76,
        src_asn=9500,
        dst_country="US",
        dst_city="Los Angeles",
        dst_lat=34.05,
        dst_lon=-118.24,
        dst_asn=7018,
        degraded=True,
    )
)


def _decode_must_be_clean(decoder, data):
    """Decode; any failure must be CodecError, never a leaked internal."""
    try:
        decoder(data)
    except CodecError:
        pass
    # Anything else (struct.error, IndexError, UnicodeDecodeError, ...)
    # propagates and fails the test.


class TestLatencyRecordFuzz:
    @given(cut=st.integers(min_value=0, max_value=len(VALID_RECORD) - 1))
    @settings(max_examples=100)
    def test_every_truncation_point(self, cut):
        _decode_must_be_clean(decode_latency_record, VALID_RECORD[:cut])

    @given(
        position=st.integers(min_value=0, max_value=len(VALID_RECORD) - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=200)
    def test_single_bit_flips(self, position, mask):
        mangled = bytearray(VALID_RECORD)
        mangled[position] ^= mask
        _decode_must_be_clean(decode_latency_record, bytes(mangled))

    @given(junk=st.binary(max_size=128))
    @settings(max_examples=200)
    def test_arbitrary_junk(self, junk):
        _decode_must_be_clean(decode_latency_record, junk)

    @given(tail=st.binary(min_size=1, max_size=32))
    @settings(max_examples=100)
    def test_trailing_garbage(self, tail):
        _decode_must_be_clean(decode_latency_record, VALID_RECORD + tail)


class TestEnrichedFuzz:
    @given(cut=st.integers(min_value=0, max_value=len(VALID_ENRICHED) - 1))
    @settings(max_examples=100)
    def test_every_truncation_point(self, cut):
        _decode_must_be_clean(decode_enriched, VALID_ENRICHED[:cut])

    @given(
        position=st.integers(min_value=0, max_value=len(VALID_ENRICHED) - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=200)
    def test_single_bit_flips(self, position, mask):
        mangled = bytearray(VALID_ENRICHED)
        mangled[position] ^= mask
        _decode_must_be_clean(decode_enriched, bytes(mangled))

    @given(junk=st.binary(max_size=128))
    @settings(max_examples=200)
    def test_arbitrary_junk(self, junk):
        _decode_must_be_clean(decode_enriched, junk)

    @given(
        cut=st.integers(min_value=1, max_value=len(VALID_ENRICHED) - 1),
        position=st.integers(min_value=0, max_value=len(VALID_ENRICHED) - 2),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=200)
    def test_truncate_then_flip(self, cut, position, mask):
        mangled = bytearray(VALID_ENRICHED[:cut])
        mangled[position % len(mangled)] ^= mask
        _decode_must_be_clean(decode_enriched, bytes(mangled))


# -- the decoders agree with the ones they replaced --------------------------
#
# The reference decoders below are the previous implementations, kept
# verbatim: address slices through ``int.from_bytes``, one helper call
# per tag string, keyword construction. The ones in ``repro.mq.codec``
# read a record in one ``unpack`` and the strings in place; on any
# input both return equal values or both raise ``CodecError`` with the
# same text (the text becomes a dead letter's reason).

_REF_TAIL = struct.Struct("!HHQQQQQHI")
_REF_ENRICHED = struct.Struct("!QQQddddII")


def reference_decode_latency_record(data):
    if len(data) < 2:
        raise CodecError("latency record too short")
    version, flags = data[0], data[1]
    if version != 1:
        raise CodecError(f"unknown latency record version {version}")
    is_ipv6 = bool(flags & 0x01)
    addr_len = 16 if is_ipv6 else 4
    expected = 2 + 2 * addr_len + _REF_TAIL.size
    if len(data) != expected:
        raise CodecError(f"latency record length {len(data)} != {expected}")
    offset = 2
    src_ip = int.from_bytes(data[offset:offset + addr_len], "big")
    offset += addr_len
    dst_ip = int.from_bytes(data[offset:offset + addr_len], "big")
    offset += addr_len
    (
        src_port, dst_port, internal_ns, external_ns, syn_ns, synack_ns, ack_ns,
        queue_id, rss_hash,
    ) = _REF_TAIL.unpack_from(data, offset)
    return LatencyRecord(
        src_ip=src_ip, dst_ip=dst_ip, src_port=src_port, dst_port=dst_port,
        internal_ns=internal_ns, external_ns=external_ns, syn_ns=syn_ns,
        synack_ns=synack_ns, ack_ns=ack_ns, is_ipv6=is_ipv6, queue_id=queue_id,
        rss_hash=rss_hash,
    )


def _reference_unpack_str(data, offset):
    if offset + 2 > len(data):
        raise CodecError("truncated string length")
    (length,) = struct.unpack_from("!H", data, offset)
    offset += 2
    if offset + length > len(data):
        raise CodecError("truncated string body")
    try:
        text = data[offset:offset + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"invalid utf-8 in string field: {exc}") from exc
    return text, offset + length


def reference_decode_enriched(data):
    if not data:
        raise CodecError("empty enriched payload")
    version = data[0]
    degraded = False
    if version == 2:
        if len(data) < 2:
            raise CodecError("truncated enriched flags")
        degraded = bool(data[1] & 0x01)
        offset = 2
    elif version == 1:
        offset = 1
    else:
        raise CodecError(f"unknown enriched version {version}")
    if offset + _REF_ENRICHED.size > len(data):
        raise CodecError("truncated enriched fixed fields")
    (
        timestamp_ns, internal_ns, external_ns, src_lat, src_lon, dst_lat, dst_lon,
        src_asn, dst_asn,
    ) = _REF_ENRICHED.unpack_from(data, offset)
    offset += _REF_ENRICHED.size
    src_country, offset = _reference_unpack_str(data, offset)
    src_city, offset = _reference_unpack_str(data, offset)
    dst_country, offset = _reference_unpack_str(data, offset)
    dst_city, offset = _reference_unpack_str(data, offset)
    if offset != len(data):
        raise CodecError("trailing bytes after enriched record")
    return EnrichedMeasurement(
        timestamp_ns=timestamp_ns, internal_ns=internal_ns, external_ns=external_ns,
        src_country=src_country, src_city=src_city, src_lat=src_lat, src_lon=src_lon,
        src_asn=src_asn, dst_country=dst_country, dst_city=dst_city, dst_lat=dst_lat,
        dst_lon=dst_lon, dst_asn=dst_asn, degraded=degraded,
    )


def _value_or_error(decoder, data):
    try:
        return decoder(data)
    except CodecError as error:
        return ("CodecError", str(error))


def _agree(left, right):
    """Equal, counting a NaN coordinate (a flipped bit makes one) as
    equal to itself: compare the packed bytes, not the floats."""
    if isinstance(left, tuple) or isinstance(right, tuple):
        return left == right
    return encode_enriched(left) == encode_enriched(right) and left.degraded == right.degraded


VALID_RECORD_V6 = encode_latency_record(
    LatencyRecord(
        src_ip=(0x20010DB8 << 96) | 0xFFFF_0000_0000_0001,
        dst_ip=(0x2404_6800 << 96) | (0xABCD << 64) | 0x2,
        src_port=50123,
        dst_port=443,
        internal_ns=7_000_000,
        external_ns=88_000_000,
        syn_ns=2_000_000_000,
        synack_ns=2_088_000_000,
        ack_ns=2_095_000_000,
        is_ipv6=True,
        queue_id=1,
        rss_hash=0x1234ABCD,
    )
)
# The v1 layout: no flags byte after the version.
VALID_ENRICHED_V1 = bytes([1]) + VALID_ENRICHED[2:]
VALID_ENRICHED_UNICODE = encode_enriched(
    EnrichedMeasurement(
        timestamp_ns=1, internal_ns=2, external_ns=3, src_country="NZ",
        src_city="Ōtāhuhu", src_lat=-36.9, src_lon=174.8, src_asn=1,
        dst_country="", dst_city="São Paulo", dst_lat=-23.5, dst_lon=-46.6, dst_asn=2,
    )
)
RECORD_PAYLOADS = [VALID_RECORD, VALID_RECORD_V6]
ENRICHED_PAYLOADS = [VALID_ENRICHED, VALID_ENRICHED_V1, VALID_ENRICHED_UNICODE]


class TestFastDecodersEqualTheReferences:
    def test_on_valid_payloads(self):
        for payload in RECORD_PAYLOADS:
            assert decode_latency_record(payload) == reference_decode_latency_record(payload)
        assert decode_latency_record(VALID_RECORD_V6).src_ip >> 96 == 0x20010DB8
        for payload in ENRICHED_PAYLOADS:
            assert decode_enriched(payload) == reference_decode_enriched(payload)
        assert decode_enriched(VALID_ENRICHED).degraded
        assert not decode_enriched(VALID_ENRICHED_V1).degraded

    def test_on_every_truncation_offset(self):
        for payload in RECORD_PAYLOADS:
            for cut in range(len(payload) + 1):
                assert _value_or_error(decode_latency_record, payload[:cut]) == (
                    _value_or_error(reference_decode_latency_record, payload[:cut])
                )
        for payload in ENRICHED_PAYLOADS:
            for cut in range(len(payload) + 1):
                assert _value_or_error(decode_enriched, payload[:cut]) == (
                    _value_or_error(reference_decode_enriched, payload[:cut])
                )

    @given(
        payload=st.sampled_from(RECORD_PAYLOADS),
        position=st.integers(min_value=0, max_value=200),
        mask=st.integers(min_value=1, max_value=255),
        tail=st.binary(max_size=4),
    )
    @settings(max_examples=300)
    def test_on_flipped_and_extended_records(self, payload, position, mask, tail):
        mangled = bytearray(payload)
        mangled[position % len(mangled)] ^= mask
        data = bytes(mangled) + tail
        assert _value_or_error(decode_latency_record, data) == (
            _value_or_error(reference_decode_latency_record, data)
        )

    @given(
        payload=st.sampled_from(ENRICHED_PAYLOADS),
        cut=st.integers(min_value=0, max_value=200),
        position=st.integers(min_value=0, max_value=200),
        mask=st.integers(min_value=0, max_value=255),
        tail=st.binary(max_size=4),
    )
    @settings(max_examples=500)
    def test_on_cut_flipped_and_extended_enriched(self, payload, cut, position, mask, tail):
        mangled = bytearray(payload[: max(1, len(payload) - cut % 40)])
        mangled[position % len(mangled)] ^= mask
        data = bytes(mangled) + tail
        assert _agree(
            _value_or_error(decode_enriched, data),
            _value_or_error(reference_decode_enriched, data),
        )

    @given(junk=st.binary(max_size=128))
    @settings(max_examples=300)
    def test_on_arbitrary_junk(self, junk):
        assert _value_or_error(decode_latency_record, junk) == (
            _value_or_error(reference_decode_latency_record, junk)
        )
        assert _agree(
            _value_or_error(decode_enriched, junk),
            _value_or_error(reference_decode_enriched, junk),
        )
