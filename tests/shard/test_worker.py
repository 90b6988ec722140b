"""The shard child's books around the one worker body: batch
processing, acks, restore arithmetic — and that the body gives the same
answers ring-fed and wire-fed."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.stats import PipelineStats
from repro.core.worker import QueueWorker
from repro.dpdk.nic import NicPort
from repro.mq.codec import decode_latency_record, encode_latency_record
from repro.net.ethernet import EthernetFrame
from repro.net.ipv4 import IPv4Header
from repro.net.packet import Packet, build_tcp_packet
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_SYN
from repro.shard import protocol
from repro.shard.worker import ShardBooks
from repro.traffic.noise import _udp_packet
from tests.conftest import make_handshake


def handshake_triples(rss_hash=7, client_port=40000):
    return [
        (p.timestamp_ns, rss_hash, p.data)
        for p in make_handshake(client_port=client_port)
    ]


class TestShardWorker:
    def test_batch_yields_ack_with_counts_and_records(self):
        worker = ShardBooks(shard_id=0)
        ack = worker.process_batch(1, handshake_triples())
        seq, processed, parse_errors, records = protocol.decode_ack(ack)
        assert (seq, processed, parse_errors) == (1, 3, 0)
        assert len(records) == 1
        record = decode_latency_record(records[0])
        assert record.external_ns == 50_000_000
        assert record.queue_id == 0

    def test_records_carry_the_shard_queue_id(self):
        worker = ShardBooks(shard_id=3)
        ack = worker.process_batch(1, handshake_triples())
        _, _, _, records = protocol.decode_ack(ack)
        assert decode_latency_record(records[0]).queue_id == 3

    def test_parse_errors_counted_not_fatal(self):
        worker = ShardBooks(shard_id=0)
        batch = [(1, 0, b"\x00" * 40), *handshake_triples()]
        _, processed, parse_errors, records = protocol.decode_ack(
            worker.process_batch(1, batch)
        )
        assert processed == 4
        assert parse_errors == 1
        assert len(records) == 1

    def test_flow_sampling_matches_queue_worker_semantics(self):
        config = PipelineConfig(flow_sample_modulus=2)
        worker = ShardBooks(shard_id=0, config=config)
        worker.process_batch(1, handshake_triples(rss_hash=3))  # 3 % 2 != 0
        assert worker.ledger()["packets_sampled_out"] == 3
        assert worker.records_emitted == 0
        worker.process_batch(2, handshake_triples(rss_hash=4))
        assert worker.records_emitted == 1

    def test_state_round_trip(self):
        worker = ShardBooks(shard_id=1)
        worker.process_batch(5, handshake_triples())
        clone = ShardBooks(shard_id=1)
        clone.load_state(worker.state_dict())
        assert clone.ledger() == worker.ledger()

    def test_state_refuses_the_wrong_shard(self):
        worker = ShardBooks(shard_id=1)
        with pytest.raises(ValueError):
            ShardBooks(shard_id=2).load_state(worker.state_dict())

    def test_apply_ack_deltas_restores_the_books_exactly(self):
        """Checkpoint + WAL replay: the restored ledger must equal the
        pre-crash one even though the flow table rows are history."""
        original = ShardBooks(shard_id=0)
        original.process_batch(1, handshake_triples())
        checkpointed = original.state_dict()
        original.process_batch(
            2, handshake_triples(rss_hash=9, client_port=40002)
        )  # post-checkpoint, WAL'd as a delta

        restored = ShardBooks(shard_id=0)
        restored.load_state(checkpointed)
        restored.apply_ack_deltas(
            [{"seq": 2, "processed": 3, "parse_errors": 0, "records": 1}]
        )
        assert restored.ledger() == original.ledger()


def _routed(packets):
    """The ``(timestamp_ns, rss_hash, data)`` triples a router would
    send for *packets*: the NIC's own hash per frame."""
    tap = NicPort(num_queues=1)
    for packet in packets:
        tap.receive(packet)
    return [(m.timestamp_ns, m.rss_hash, m.data) for m in tap.rx_burst(0)]


def _handshake_with_hash_parity(parity):
    """A handshake whose symmetric RSS hash is odd or even."""
    for client_port in range(40000, 40064):
        packets = make_handshake(client_port=client_port)
        if _routed(packets)[0][1] % 2 == parity:
            return packets
    raise AssertionError("no port with the wanted hash parity")


def _truncated_frame():
    syn = make_handshake(client_port=41000)[0]
    return [Packet(data=syn.data[:20], timestamp_ns=syn.timestamp_ns)]


def _sampled_in(make_frames):
    """The first ``make_frames(port)`` whose RSS hash flow sampling keeps."""
    for port in range(42000, 42064):
        packets = make_frames(port)
        if _routed(packets)[0][1] % 2 == 0:
            return packets
    raise AssertionError("no port with an even hash")


def _reshaped(reshape):
    """A sampled-in handshake with every frame's bytes put through *reshape*."""
    return _sampled_in(
        lambda port: [
            Packet(data=reshape(p.data), timestamp_ns=p.timestamp_ns)
            for p in make_handshake(client_port=port)
        ]
    )


def _vlan_handshake():
    return _reshaped(lambda data: data[:12] + b"\x81\x00\x00\x2a" + data[12:])


def _padded_handshake():
    # 54-byte segments zero-padded to Ethernet's 60-byte minimum.
    return _reshaped(lambda data: data + b"\x00" * 6)


def _ipv6_handshake():
    client, server = (0x20010DB8 << 96) + 1, (0x20010DB8 << 96) + 2

    def frames(port):
        return [
            build_tcp_packet(client, server, port, 443, TCP_FLAG_SYN,
                             seq=100, ipv6=True, timestamp_ns=1_000),
            build_tcp_packet(server, client, 443, port, TCP_FLAG_SYN | TCP_FLAG_ACK,
                             seq=500, ack=101, ipv6=True, timestamp_ns=2_000),
            build_tcp_packet(client, server, port, 443, TCP_FLAG_ACK,
                             seq=101, ack=501, ipv6=True, timestamp_ns=3_000),
        ]

    return _sampled_in(frames)


def _udp_datagram():
    return _sampled_in(lambda port: [_udp_packet(1, 2, port, 53, b"query", 5)])


def _ipv4_fragment():
    def frames(port):
        syn = make_handshake(client_port=port)[0]
        ip = IPv4Header(src=1, dst=2, more_fragments=True, payload=syn.data[34:])
        return [Packet(data=EthernetFrame(payload=ip.pack()).pack(), timestamp_ns=5)]

    return _sampled_in(frames)


def _mixed_frames():
    return (
        _handshake_with_hash_parity(0)
        + _truncated_frame()
        + _udp_datagram()
        + _vlan_handshake()
        + _handshake_with_hash_parity(1)
        + _ipv4_fragment()
        + _ipv6_handshake()
    )


@pytest.mark.parametrize(
    "make_frames, expected",
    [
        pytest.param(lambda: _handshake_with_hash_parity(0), (1, 0, 0), id="handshake"),
        pytest.param(_truncated_frame, (0, 1, 0), id="truncated"),
        pytest.param(lambda: _handshake_with_hash_parity(1), (0, 0, 3), id="sampled-out"),
        pytest.param(_vlan_handshake, (1, 0, 0), id="vlan"),
        pytest.param(_ipv6_handshake, (1, 0, 0), id="ipv6"),
        pytest.param(_padded_handshake, (1, 0, 0), id="padded-ack"),
        pytest.param(_udp_datagram, (0, 1, 0), id="udp"),
        pytest.param(_ipv4_fragment, (0, 1, 0), id="fragment"),
        pytest.param(_mixed_frames, (3, 3, 3), id="mixed"),
    ],
)
def test_ring_fed_and_wire_fed_agree(make_frames, expected):
    """One body, two feeds: the rx ring and the shard wire. *expected*
    is (records, parse errors, packets sampled out)."""
    config = PipelineConfig(num_queues=1, flow_sample_modulus=2)
    packets = make_frames()

    nic = NicPort(num_queues=1)
    for packet in packets:
        assert nic.receive(packet)
    ring_records = []
    ring_stats = PipelineStats()
    ring_fed = QueueWorker(
        nic,
        0,
        config=config,
        sink=lambda record: ring_records.append(encode_latency_record(record)),
        pipeline_stats=ring_stats,
    )
    while ring_fed.poll():
        pass

    triples = _routed(packets)
    assert len(triples) == len(packets)
    books = ShardBooks(shard_id=0, config=config)
    # Across the wire codec too, as the child receives it.
    _, decoded = protocol.decode_batch(protocol.encode_batch(1, triples))
    _, processed, parse_errors, wire_records = protocol.decode_ack(
        books.process_batch(1, decoded)
    )
    wire_fed = books.worker

    assert wire_records == ring_records
    assert processed == ring_fed.packets_processed == wire_fed.packets_processed
    assert wire_fed.packets_sampled_out == ring_fed.packets_sampled_out
    assert parse_errors == ring_stats.parse_errors
    assert (
        wire_fed.pipeline_stats.parse_error_reasons
        == ring_stats.parse_error_reasons
    )
    assert wire_fed.tracker.state_dict() == ring_fed.tracker.state_dict()
    assert (
        len(ring_records), ring_stats.parse_errors, ring_fed.packets_sampled_out
    ) == expected
