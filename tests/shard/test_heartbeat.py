"""Heartbeats and the deadline failure detector."""

import pytest

from repro.mq.frames import Message
from repro.shard.heartbeat import (
    FailureDetector,
    HeartbeatError,
    decode_heartbeat,
    encode_heartbeat,
)


class TestCodec:
    def test_round_trip(self):
        message = encode_heartbeat(3, 17, now_ns=123456789)
        assert decode_heartbeat(message) == (3, 17, 123456789)

    def test_default_stamp_is_monotonic(self):
        _, _, sent = decode_heartbeat(encode_heartbeat(0, 0))
        assert sent > 0

    def test_wrong_topic_rejected(self):
        with pytest.raises(HeartbeatError):
            decode_heartbeat(Message([b"ack", b"x" * 20]))

    def test_malformed_payload_rejected(self):
        with pytest.raises(HeartbeatError):
            decode_heartbeat(Message([b"hb", b"short"]))


class TestFailureDetector:
    def test_expires_after_silence(self):
        detector = FailureDetector(deadline_ns=100)
        detector.watch(0, now_ns=1_000)
        detector.watch(1, now_ns=1_000)
        detector.observe(1, sent_ns=1_050, received_ns=1_060)
        assert detector.expired(now_ns=1_101) == [0]
        assert detector.expired(now_ns=1_160) == [0]
        assert detector.expired(now_ns=1_161) == [0, 1]

    def test_watch_starts_the_lease_at_spawn(self):
        """A shard that never says hello still expires one deadline
        after spawn — silence from birth is also a failure."""
        detector = FailureDetector(deadline_ns=50)
        detector.watch(7, now_ns=0)
        assert detector.expired(now_ns=51) == [7]

    def test_observe_resets_the_lease_and_reports_latency(self):
        detector = FailureDetector(deadline_ns=100)
        detector.watch(0, now_ns=0)
        latency = detector.observe(0, sent_ns=90, received_ns=95)
        assert latency == 5
        assert detector.last_latency_ns(0) == 5
        assert detector.expired(now_ns=100) == []

    def test_forget_stops_watching(self):
        detector = FailureDetector(deadline_ns=10)
        detector.watch(0, now_ns=0)
        detector.forget(0)
        assert detector.expired(now_ns=1_000) == []

    def test_zero_deadline_rejected(self):
        with pytest.raises(ValueError):
            FailureDetector(deadline_ns=0)
