"""Property-based tests on core invariants (hypothesis)."""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flow_table import canonical_flow_key
from repro.core.handshake import HandshakeTracker
from repro.core.latency import LatencyRecord
from repro.dpdk.rss import SYMMETRIC_RSS_KEY, RssHasher, toeplitz_hash
from repro.mq.codec import decode_latency_record, encode_latency_record
from repro.net.addresses import int_to_ip, int_to_ipv6, ip_to_int, ipv6_to_int
from repro.net.packet import build_tcp_packet
from repro.net.parser import PacketParser, ParsedPacket
from repro.net.tcp import TcpHeader
from repro.tsdb.functions import percentile
from repro.tsdb.line_protocol import format_point, parse_line
from repro.tsdb.point import Point

ipv4_ints = st.integers(min_value=0, max_value=(1 << 32) - 1)
ipv6_ints = st.integers(min_value=0, max_value=(1 << 128) - 1)
ports = st.integers(min_value=0, max_value=65535)
u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestAddressRoundtrips:
    @given(ipv4_ints)
    def test_ipv4_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @given(ipv6_ints)
    def test_ipv6_roundtrip(self, value):
        assert ipv6_to_int(int_to_ipv6(value)) == value


class TestRssProperties:
    @given(ipv4_ints, ipv4_ints, ports, ports)
    @settings(max_examples=50)
    def test_symmetric_hash_invariant(self, src, dst, sport, dport):
        hasher = RssHasher(key=SYMMETRIC_RSS_KEY)
        assert hasher.hash_ipv4_tuple(src, dst, sport, dport) == hasher.hash_ipv4_tuple(
            dst, src, dport, sport
        )

    @given(st.binary(min_size=1, max_size=36))
    @settings(max_examples=50)
    def test_table_hash_matches_reference(self, data):
        hasher = RssHasher(key=SYMMETRIC_RSS_KEY)
        key = (SYMMETRIC_RSS_KEY * 3)[: len(data) + 4]
        assert hasher.hash_bytes(data) == toeplitz_hash(key, data)


class TestFlowKeyProperties:
    @given(ipv4_ints, ports, ipv4_ints, ports, st.booleans())
    def test_canonical_symmetry(self, a_ip, a_port, b_ip, b_port, is_v6):
        forward = canonical_flow_key(a_ip, a_port, b_ip, b_port, is_v6)
        reverse = canonical_flow_key(b_ip, b_port, a_ip, a_port, is_v6)
        assert forward == reverse

    @given(ipv4_ints, ports, ipv4_ints, ports)
    def test_canonical_is_deterministic_orientation(self, a_ip, a_port, b_ip, b_port):
        key = canonical_flow_key(a_ip, a_port, b_ip, b_port)
        assert (key[0], key[1]) <= (key[2], key[3])

    @given(ipv4_ints, ports, ipv4_ints, ports, st.booleans())
    def test_the_tracker_keys_its_table_by_the_canonical_key(
        self, a_ip, a_port, b_ip, b_port, is_v6
    ):
        # HandshakeTracker.process builds the key inline.
        tracker = HandshakeTracker()
        tracker.process(ParsedPacket(a_ip, b_ip, a_port, b_port, 0x02, 7, 0, 0, 5, is_v6))
        assert list(dict(tracker.table.entries())) == [
            canonical_flow_key(a_ip, a_port, b_ip, b_port, is_v6)
        ]


class TestCodecProperties:
    @given(
        src=ipv4_ints, dst=ipv4_ints, sport=ports, dport=ports,
        internal=st.integers(min_value=0, max_value=10**12),
        external=st.integers(min_value=0, max_value=10**12),
        base=st.integers(min_value=0, max_value=10**15),
        queue=st.integers(min_value=0, max_value=255),
        rss=u32,
    )
    @settings(max_examples=100)
    def test_latency_record_roundtrip(
        self, src, dst, sport, dport, internal, external, base, queue, rss
    ):
        record = LatencyRecord(
            src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
            internal_ns=internal, external_ns=external,
            syn_ns=base, synack_ns=base + external, ack_ns=base + external + internal,
            queue_id=queue, rss_hash=rss,
        )
        assert decode_latency_record(encode_latency_record(record)) == record


class TestParserTotality:
    @given(st.binary(max_size=128))
    @settings(max_examples=200)
    def test_parser_never_crashes_on_junk(self, data):
        """The hot path must raise ParseError, never anything else."""
        from repro.net.parser import ParseError

        parser = PacketParser(extract_timestamps=True)
        try:
            parser.parse(data, 0)
        except ParseError:
            pass

    @given(
        src=ipv4_ints, dst=ipv4_ints, sport=ports, dport=ports,
        seq=u32, ack=u32,
        flags=st.integers(min_value=0, max_value=255),
        payload=st.binary(max_size=64),
    )
    @settings(max_examples=100)
    def test_build_then_parse_identity(
        self, src, dst, sport, dport, seq, ack, flags, payload
    ):
        packet = build_tcp_packet(
            src, dst, sport, dport, flags, seq=seq, ack=ack,
            payload=payload, timestamp_ns=7, compute_checksum=False,
        )
        parsed = PacketParser().parse(packet.data, 7)
        assert parsed.src_ip == src
        assert parsed.dst_ip == dst
        assert parsed.src_port == sport
        assert parsed.dst_port == dport
        assert parsed.seq == seq
        assert parsed.ack == ack
        assert parsed.flags == flags
        assert parsed.payload_len == len(payload)


class TestTcpHeaderProperties:
    @given(
        sport=ports, dport=ports, seq=u32, ack=u32,
        flags=st.integers(min_value=0, max_value=255),
        window=st.integers(min_value=0, max_value=65535),
        payload=st.binary(max_size=64),
    )
    @settings(max_examples=100)
    def test_pack_unpack_roundtrip(self, sport, dport, seq, ack, flags, window, payload):
        header = TcpHeader(
            src_port=sport, dst_port=dport, seq=seq, ack=ack,
            flags=flags, window=window, payload=payload,
        )
        parsed = TcpHeader.unpack(header.pack())
        assert (parsed.src_port, parsed.dst_port) == (sport, dport)
        assert (parsed.seq, parsed.ack) == (seq, ack)
        assert parsed.flags == flags
        assert parsed.payload == payload


class TestLineProtocolProperties:
    tag_text = st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc"), blacklist_characters="\n"),
        min_size=1, max_size=20,
    )

    @given(
        # A leading '#' makes the formatted line a comment, and
        # leading/trailing unicode whitespace is eaten by the line
        # strip — the text format genuinely cannot represent either.
        measurement=tag_text.filter(
            lambda s: not s.startswith("#") and s == s.strip()
        ),
        tag_key=tag_text, tag_value=tag_text,
        field_key=tag_text,
        value=st.floats(allow_nan=False, allow_infinity=False, width=32),
        timestamp=st.integers(min_value=0, max_value=10**18),
    )
    @settings(max_examples=100)
    def test_roundtrip(self, measurement, tag_key, tag_value, field_key, value, timestamp):
        point = Point(
            measurement, timestamp,
            tags={tag_key: tag_value}, fields={field_key: float(value)},
        )
        assert parse_line(format_point(point)) == point


class TestPercentileProperties:
    values = st.lists(
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
        min_size=1, max_size=50,
    )

    @given(values, st.floats(min_value=0, max_value=100))
    def test_bounded_by_min_max(self, data, q):
        result = percentile(data, q)
        assert min(data) <= result <= max(data)

    @given(values)
    def test_monotone_in_q(self, data):
        qs = [0, 25, 50, 75, 100]
        results = [percentile(data, q) for q in qs]
        assert results == sorted(results)


class TestHandshakeProperty:
    @given(
        external_ms=st.integers(min_value=1, max_value=5000),
        internal_ms=st.integers(min_value=1, max_value=500),
        isn_c=u32, isn_s=u32,
    )
    @settings(max_examples=50)
    def test_measured_equals_constructed(self, external_ms, internal_ms, isn_c, isn_s):
        """For any handshake timing, Ruru recovers exactly the gaps."""
        from repro.core.handshake import HandshakeTracker
        from repro.net.parser import ParsedPacket

        MS = 1_000_000

        def packet(src, dst, sport, dport, flags, t, seq, ack):
            return ParsedPacket(
                src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
                flags=flags, seq=seq, ack=ack, payload_len=0, timestamp_ns=t,
            )

        tracker = HandshakeTracker()
        tracker.process(packet(1, 2, 10, 20, 0x02, 0, isn_c, 0))
        tracker.process(packet(
            2, 1, 20, 10, 0x12, external_ms * MS, isn_s, (isn_c + 1) % (1 << 32)
        ))
        record = tracker.process(packet(
            1, 2, 10, 20, 0x10, (external_ms + internal_ms) * MS,
            (isn_c + 1) % (1 << 32), (isn_s + 1) % (1 << 32),
        ))
        assert record is not None
        assert record.external_ns == external_ms * MS
        assert record.internal_ns == internal_ms * MS
