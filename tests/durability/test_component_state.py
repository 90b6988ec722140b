"""Per-component snapshot round trips.

Every ``state_dict`` must (a) survive the snapshot codec — plain rows,
no infinities — and (b) rebuild a component that behaves
identically, not just one that compares equal. The flow-table test is
the sharpest: a handshake snapshotted between SYN-ACK and ACK must
complete into a correct measurement after restore.
"""

from repro.analytics.aggregator import PairAggregator
from repro.analytics.enricher import EnrichedMeasurement
from repro.analytics.topk import SpaceSaving
from repro.anomaly.baseline import EwmaBaseline, WindowedRate
from repro.anomaly.manager import AnomalyManager
from repro.core.handshake import HandshakeTracker
from repro.core.worker import QueueWorker
from repro.dpdk.mbuf import RxRow
from repro.durability.codec import decode_snapshot, encode_snapshot
from repro.net.parser import ParsedPacket
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.dlq import DeadLetterQueue
from repro.resilience.layer import ResilienceLayer
from repro.resilience.retry import RetryPolicy, RetryQueue
from tests.conftest import cli_stack, make_handshake

MS = 1_000_000
SYN, SYNACK, ACK = 0x02, 0x12, 0x10


def codec_round_trip(state):
    """The canonical check: encode → decode must be the identity."""
    return decode_snapshot(encode_snapshot(state))


def pkt(src, dst, flags, t_ns, seq=0, ack=0):
    return ParsedPacket(
        src_ip=src[0], dst_ip=dst[0], src_port=src[1], dst_port=dst[1],
        flags=flags, seq=seq, ack=ack, payload_len=0, timestamp_ns=t_ns,
    )


def enriched(ts_ns=1_000 * MS, external_ns=140 * MS, src="NZ", dst="US"):
    return EnrichedMeasurement(
        timestamp_ns=ts_ns, internal_ns=10 * MS, external_ns=external_ns,
        src_country=src, src_city="Auckland", src_lat=-36.85, src_lon=174.76,
        src_asn=9500, dst_country=dst, dst_city="Los Angeles", dst_lat=34.05,
        dst_lon=-118.24, dst_asn=7018,
    )


class TestFlowTableMidHandshake:
    """The tentpole's sharpest restore: measurement completes across it."""

    CLIENT = (0x0A000001, 40000)
    SERVER = (0x14000001, 443)

    def test_restored_tracker_completes_measurement(self):
        tracker = HandshakeTracker()
        tracker.process(pkt(self.CLIENT, self.SERVER, SYN, 0, seq=1000))
        tracker.process(
            pkt(self.SERVER, self.CLIENT, SYNACK, 140 * MS, seq=9000, ack=1001)
        )
        state = codec_round_trip(tracker.state_dict())

        restored = HandshakeTracker()
        restored.load_state(state)
        record = restored.process(
            pkt(self.CLIENT, self.SERVER, ACK, 150 * MS, seq=1001, ack=9001)
        )
        assert record is not None
        assert record.external_ns == 140 * MS
        assert record.internal_ns == 10 * MS
        assert restored.stats.measurements == tracker.stats.measurements + 1

    def test_state_dict_stable_across_round_trip(self):
        tracker = HandshakeTracker()
        tracker.process(pkt(self.CLIENT, self.SERVER, SYN, 0, seq=1000))
        restored = HandshakeTracker()
        restored.load_state(codec_round_trip(tracker.state_dict()))
        assert restored.state_dict() == tracker.state_dict()


class TestWorkerFragmentFromBeforeTheTracerWentAway:
    """Worker fragments used to carry ``polls`` (the span sampler's
    counter); checkpoints written then must still load."""

    @staticmethod
    def with_polls(worker_state):
        return {**worker_state, "polls": 17}

    def test_worker_loads_a_fragment_carrying_polls(self):
        worker = QueueWorker(None, queue_id=2)
        worker.process_burst(
            [RxRow(p.timestamp_ns, 7, None, p.data) for p in make_handshake()[:2]]
        )
        old_format = codec_round_trip(self.with_polls(worker.state_dict()))

        restored = QueueWorker(None, queue_id=2)
        restored.load_state(old_format)
        assert restored.state_dict() == worker.state_dict()
        assert "polls" not in restored.state_dict()

    def test_durable_envelope_with_old_worker_fragments_loads(self, tmp_path):
        stack = cli_stack("live", "--state-dir", tmp_path / "a", "--duration", 2, "--rate", 30)
        stack.process_batch(list(stack.packet_stream()))
        envelope = stack.capture_state()
        assert envelope["pipeline"]["workers"]
        envelope["pipeline"]["workers"] = [
            self.with_polls(state) for state in envelope["pipeline"]["workers"]
        ]

        fresh = cli_stack("live", "--state-dir", tmp_path / "b", "--duration", 2, "--rate", 30)
        fresh.load_state(codec_round_trip(envelope))
        assert fresh.capture_state() == stack.capture_state()


class TestAggregator:
    def test_open_window_survives(self):
        agg = PairAggregator(window_ns=1_000 * MS, track_p99=True)
        for step in range(5):
            agg.add(enriched(ts_ns=step * 100 * MS, external_ns=(100 + step) * MS))
        state = codec_round_trip(agg.state_dict())

        restored = PairAggregator(window_ns=1_000 * MS, track_p99=True)
        restored.load_state(state)
        # Both continue identically: same later adds, same flush points.
        late = enriched(ts_ns=2_500 * MS)
        agg.add(late)
        restored.add(late)
        assert [str(p) for p in agg.flush()] == [str(p) for p in restored.flush()]

    def test_empty_aggregator_round_trips(self):
        agg = PairAggregator()
        restored = PairAggregator()
        restored.load_state(codec_round_trip(agg.state_dict()))
        assert restored.state_dict() == agg.state_dict()


class TestTopK:
    def test_tuple_keys_survive_json(self):
        topk = SpaceSaving(capacity=4)
        for _ in range(5):
            topk.add(("NZ", "US"))
        topk.add(("NZ", "GB"))
        restored = SpaceSaving(capacity=4)
        restored.load_state(codec_round_trip(topk.state_dict()))
        assert restored.state_dict() == topk.state_dict()
        assert [entry.key for entry in restored.top(1)] == [("NZ", "US")]


class TestAnomalyState:
    def test_ewma_baseline_round_trip(self):
        baseline = EwmaBaseline(alpha=0.1, warmup=3)
        for value in (10.0, 11.0, 12.0, 50.0):
            baseline.observe(("NZ", "US"), value)
        restored = EwmaBaseline(alpha=0.1, warmup=3)
        restored.load_state(codec_round_trip(baseline.state_dict()))
        assert restored.state_dict() == baseline.state_dict()
        assert restored.mean(("NZ", "US")) == baseline.mean(("NZ", "US"))

    def test_windowed_rate_round_trip(self):
        rate = WindowedRate(window_ns=1_000 * MS)
        rate.add("syn", 100 * MS, count=3)
        restored = WindowedRate(window_ns=1_000 * MS)
        restored.load_state(codec_round_trip(rate.state_dict()))
        assert restored.state_dict() == rate.state_dict()

    def test_manager_round_trip(self):
        manager = AnomalyManager()
        for step in range(40):
            manager.observe_measurement(enriched(ts_ns=step * 50 * MS))
        restored = AnomalyManager()
        restored.load_state(codec_round_trip(manager.state_dict()))
        assert restored.state_dict() == manager.state_dict()


class TestResilienceState:
    def test_dlq_payload_bytes_survive(self):
        dlq = DeadLetterQueue(capacity=8)
        dlq.push("analytics.decode", "codec_error", b"\x00\xffbinary", 123)
        restored = DeadLetterQueue(capacity=8)
        restored.load_state(codec_round_trip(dlq.state_dict()))
        assert restored.state_dict() == dlq.state_dict()
        assert restored.entries()[0].payload == b"\x00\xffbinary"
        assert restored.summary() == dlq.summary()

    def test_breaker_round_trip(self):
        breaker = CircuitBreaker(name="tsdb", failure_threshold=2)
        breaker.record_failure(1)
        breaker.record_failure(2)  # opens
        restored = CircuitBreaker(name="tsdb", failure_threshold=2)
        restored.load_state(codec_round_trip(breaker.state_dict()))
        assert restored.state_dict() == breaker.state_dict()
        assert restored.state_name == breaker.state_name

    def test_retry_queue_round_trip_with_encoders(self):
        policy = RetryPolicy(seed=7)
        queue = RetryQueue(policy)
        queue.schedule("payload-a", now_ns=0, attempt=1)
        queue.schedule("payload-b", now_ns=0, attempt=2)
        state = codec_round_trip(queue.state_dict(encode_item=str))
        restored = RetryQueue(RetryPolicy(seed=99))
        restored.load_state(state, decode_item=str)
        assert restored.state_dict(encode_item=str) == queue.state_dict(
            encode_item=str
        )
        assert len(restored) == 2

    def test_retry_policy_rng_continuity(self):
        policy = RetryPolicy(seed=7)
        policy.delay_ns(1)  # advance the jitter RNG (attempts are 1-based)
        restored = RetryPolicy(seed=0)
        restored.load_state(codec_round_trip(policy.state_dict()))
        assert restored.delay_ns(2) == policy.delay_ns(2)

    def test_layer_round_trip(self):
        layer = ResilienceLayer()
        layer.dlq.push("mq", "lost", b"x", 5)
        state = codec_round_trip(layer.state_dict())
        restored = ResilienceLayer()
        restored.load_state(state)
        assert restored.state_dict() == layer.state_dict()
