"""Analytics service under the resilience layer.

Covers the failure paths the chaos harness exercises end-to-end, but
surgically: undecodable payloads dead-letter, a failing enricher trips
its breaker and degrades instead of dropping, and failing TSDB writes
defer/retry/shed — all while the conservation ledger stays balanced.
"""

import os

import pytest

from repro.analytics.service import AnalyticsService, LATENCY_TOPIC
from repro.core.latency import LatencyRecord
from repro.durability.wal import DurableTsdb, WriteAheadLog
from repro.mq.codec import decode_enriched, encode_latency_record
from repro.mq.frames import Message
from repro.mq.socket import Context
from repro.resilience import ResilienceLayer
from repro.resilience.breaker import BREAKER_CLOSED, BREAKER_OPEN, CircuitBreaker
from repro.tsdb.database import TimeSeriesDatabase

NS_PER_MS = 1_000_000


def _record(i=0, timestamp_ns=None):
    return LatencyRecord(
        src_ip=0x0A000001 + i,
        dst_ip=0x14000001,
        src_port=40_000 + i,
        dst_port=443,
        internal_ns=10 * NS_PER_MS,
        external_ns=140 * NS_PER_MS,
        syn_ns=(timestamp_ns or (1_000_000_000 + i * 1_000_000)),
        synack_ns=(timestamp_ns or (1_000_000_000 + i * 1_000_000)) + 150 * NS_PER_MS,
        ack_ns=(timestamp_ns or (1_000_000_000 + i * 1_000_000)) + 160 * NS_PER_MS,
        queue_id=0,
        rss_hash=0xABC + i,
    )


def _service(geo_asn, layer, **kwargs):
    geo, asn = geo_asn
    return AnalyticsService(
        Context(), geo, asn, resilience=layer, num_workers=1, **kwargs
    )


def _feed(service, records):
    push = service.connect_pipeline()
    for record in records:
        push.send(Message.with_topic(LATENCY_TOPIC, encode_latency_record(record)))
    service.poll(max_messages=1 << 20)


class _BrokenGeo:
    """A geo database that always raises (hard dependency outage)."""

    def lookup(self, address):
        raise RuntimeError("geo backend down")


class _FlakyTsdb:
    """Fails the first *failures* write batches, then recovers."""

    def __init__(self, inner, failures):
        self.inner = inner
        self.failures = failures
        self.attempts = 0

    def write_batch(self, points):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise RuntimeError("store unavailable")
        return self.inner.write_batch(points)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestDecodeFailures:
    def test_garbage_routed_to_dlq(self, geo_asn):
        layer = ResilienceLayer(seed=1)
        service = _service(geo_asn, layer)
        push = service.connect_pipeline()
        push.send(Message.with_topic(LATENCY_TOPIC, b"\xde\xad\xbe\xef"))
        service.poll()
        assert service.decode_errors == 1
        assert service.deadlettered == 1
        assert len(layer.dlq) == 1
        letter = layer.dlq.entries()[0]
        assert letter.stage == "mq.decode"
        assert letter.reason.startswith("CodecError")
        assert letter.payload == b"\xde\xad\xbe\xef"
        service.conservation_ledger().check()

    def test_dlq_reasons_have_digits_collapsed(self, geo_asn):
        # Metric label cardinality must stay bounded: lengths and
        # offsets inside exception text collapse to 'N'.
        layer = ResilienceLayer(seed=1)
        service = _service(geo_asn, layer)
        push = service.connect_pipeline()
        push.send(Message.with_topic(LATENCY_TOPIC, b"\x01" + b"x" * 7))
        push.send(Message.with_topic(LATENCY_TOPIC, b"\x01" + b"x" * 11))
        service.poll()
        reasons = {reason for _, reason in layer.dlq.summary()}
        assert len(reasons) == 1
        assert not any(ch.isdigit() for reason in reasons for ch in reason)

    def test_a_service_handed_no_layer_builds_one_and_dead_letters(self, geo_asn):
        geo, asn = geo_asn
        service = AnalyticsService(Context(), geo, asn, num_workers=1)
        assert isinstance(service.resilience, ResilienceLayer)
        push = service.connect_pipeline()
        push.send(Message.with_topic(LATENCY_TOPIC, b"junk"))
        service.poll()
        assert service.decode_errors == service.deadlettered == 1
        assert service.dropped_records == 0
        assert len(service.resilience.dlq) == 1
        service.conservation_ledger().check()


class TestEnrichmentBreaker:
    def test_degrades_instead_of_dropping(self, geo_asn):
        _, asn = geo_asn
        layer = ResilienceLayer(seed=1)
        service = AnalyticsService(
            Context(), _BrokenGeo(), asn, resilience=layer, num_workers=1
        )
        sub = service.subscribe_frontend()
        _feed(service, [_record(i) for i in range(20)])
        # Every record published; none lost to the dead dependency.
        assert service.processed == service.records_in == 20
        service.conservation_ledger().check()
        # The breaker tripped after its failure threshold...
        assert layer.enrich_breaker.opened_count >= 1
        assert layer.enrich_failures >= layer.enrich_breaker.failure_threshold
        # ...and open-breaker records short-circuited to degraded.
        assert layer.degraded_published == 20
        measurements = [decode_enriched(m.payload[0]) for m in sub.recv_all()]
        assert len(measurements) == 20
        assert all(m.degraded for m in measurements)
        assert all(m.src_country == "ZZ" for m in measurements)

    def test_degraded_keeps_latency_components(self, geo_asn):
        _, asn = geo_asn
        layer = ResilienceLayer(seed=1)
        service = AnalyticsService(
            Context(), _BrokenGeo(), asn, resilience=layer, num_workers=1
        )
        sub = service.subscribe_frontend()
        _feed(service, [_record(0)])
        measurement = decode_enriched(sub.recv_all()[0].payload[0])
        assert measurement.internal_ns == 10 * NS_PER_MS
        assert measurement.external_ns == 140 * NS_PER_MS

    def test_healthy_enricher_never_degrades(self, geo_asn):
        layer = ResilienceLayer(seed=1)
        service = _service(geo_asn, layer)
        _feed(service, [_record(i) for i in range(5)])
        assert layer.degraded_published == 0
        assert layer.enrich_breaker.opened_count == 0


class TestGuardedWrites:
    def test_transient_failure_retries_then_lands(self, geo_asn):
        layer = ResilienceLayer(seed=1)
        service = _service(geo_asn, layer)
        flaky = _FlakyTsdb(service.tsdb, failures=1)
        service.tsdb = flaky
        _feed(service, [_record(0)])
        service.finish()
        assert layer.tsdb_write_failures == 1
        assert layer.retries >= 1
        assert layer.points_written > 0
        service.conservation_ledger().check()

    def test_dead_store_sheds_points_with_accounting(self, geo_asn):
        layer = ResilienceLayer(seed=1)
        service = _service(geo_asn, layer)
        service.tsdb = _FlakyTsdb(service.tsdb, failures=1 << 30)
        _feed(service, [_record(i) for i in range(10)])
        service.finish()
        # Nothing landed; every point was shed *and counted*.
        assert layer.points_written == 0
        assert layer.points_lost > 0
        assert len(layer.retry_queue) == 0
        assert layer.tsdb_breaker.opened_count >= 1
        # Records still published downstream — losing the store does
        # not lose the measurement feed.
        assert service.processed == service.records_in == 10
        service.conservation_ledger().check()

    def test_open_breaker_defers_without_hammering(self, geo_asn):
        layer = ResilienceLayer(seed=1)
        service = _service(geo_asn, layer)
        flaky = _FlakyTsdb(service.tsdb, failures=1 << 30)
        service.tsdb = flaky
        # One record per poll: a poll is one write request, and it is
        # requests the breaker counts.
        for i in range(10):
            _feed(service, [_record(i)])
        # Once open, the breaker stops write attempts: far fewer
        # attempts than requests.
        assert flaky.attempts < 10
        assert layer.tsdb_breaker.opened_count >= 1


def _pending_points(layer):
    return sum(
        len(points) for _, _, points in layer.retry_queue.state_dict()["pending"]
    )


class TestWriteRequests:
    """A poll is one write request: one WAL frame, one flush (one fsync
    under ``fsync``), one fault decision, one breaker decision."""

    def test_a_poll_is_one_request_frame_and_fsync(self, geo_asn, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        layer = ResilienceLayer(seed=1)
        service = _service(geo_asn, layer)
        wal = WriteAheadLog(str(tmp_path / "t.wal"), fsync=True)
        store = _FlakyTsdb(service.tsdb, failures=0)
        service.tsdb = DurableTsdb(store, wal)
        _feed(service, [_record(i) for i in range(10)])
        assert (store.attempts, wal.appends, len(synced)) == (1, 1, 1)
        for i in range(10, 13):
            _feed(service, [_record(i)])
        assert (store.attempts, wal.appends, len(synced)) == (4, 4, 4)
        assert layer.points_written == 13
        wal.close()

    def test_a_rejected_request_leaves_the_store_equal_to_its_log(self, geo_asn, tmp_path):
        layer = ResilienceLayer(seed=1)
        service = _service(geo_asn, layer)
        inner = service.tsdb
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        service.tsdb = DurableTsdb(_FlakyTsdb(inner, failures=1), wal)
        _feed(service, [_record(i) for i in range(5)])
        # The abort record covers the whole frame: no point of the
        # refused poll is in the store or replays, every one is queued.
        assert inner.total_points() == 0
        assert wal.appends == wal.aborts == 1
        assert wal.replay().live_batches(0) == []
        assert layer.points_written == layer.points_lost == 0
        assert len(layer.retry_queue) == 1
        # A later poll flushes the deferred request ahead of its own.
        _feed(service, [_record(5, timestamp_ns=3_000_000_000)])
        assert layer.retries == 1 and len(layer.retry_queue) == 0
        assert layer.points_written == inner.total_points() >= 6  # + the closed window
        replayed = TimeSeriesDatabase()
        for _, points in wal.replay().live_batches(0):
            replayed.write_batch(points)
        assert sorted(replayed.dump_lines()) == sorted(inner.dump_lines())
        wal.close()

    @pytest.mark.parametrize("failures", [1, 3, 4, 9, 1 << 30])
    def test_every_point_is_written_lost_or_pending(self, geo_asn, failures):
        def books_of(failures):
            layer = ResilienceLayer(seed=1)
            service = _service(geo_asn, layer)
            service.tsdb = _FlakyTsdb(service.tsdb, failures=failures)
            books = []
            for second in range(1, 9):
                _feed(
                    service,
                    [_record(i, timestamp_ns=second * 1_000_000_000 + i) for i in range(4)],
                )
                books.append(
                    layer.points_written + layer.points_lost + _pending_points(layer)
                )
            service.finish()
            assert not service._request and len(layer.retry_queue) == 0
            books.append(layer.points_written + layer.points_lost)
            assert layer.points_written == service.tsdb.inner.total_points()
            return books, layer

        produced, healthy = books_of(failures=0)
        assert healthy.points_lost == 0 and produced[-1] > 8 * 4  # windows closed too
        books, layer = books_of(failures)
        assert books == produced
        assert layer.tsdb_write_failures > 0

    def test_a_probe_spends_no_attempt_budget(self, geo_asn):
        """Half-open rule: a request that is the probe again and again
        in one outage found the outage, it did not cause it — it is
        still pending when a request that failed as often against a
        *closed* breaker would have been shed."""
        layer = ResilienceLayer(seed=1)
        layer.tsdb_breaker = CircuitBreaker(
            "tsdb", failure_threshold=1, recovery_timeout_ns=500_000_000
        )
        service = _service(geo_asn, layer)
        flaky = _FlakyTsdb(service.tsdb, failures=1 << 30)
        service.tsdb = flaky
        _feed(service, [_record(0, timestamp_ns=1_000_000_000)])  # trips it
        assert layer.tsdb_breaker.state == BREAKER_OPEN and flaky.attempts == 1
        for outage_second in range(2, 8):
            # Each poll lands past the recovery timeout: the deferred
            # request is flushed first, as the half-open probe, and fails.
            _feed(service, [_record(outage_second, timestamp_ns=outage_second * 1_000_000_000)])
        assert flaky.attempts == 1 + 6
        assert layer.tsdb_write_failures == 7 > layer.retry_policy.max_attempts
        assert layer.points_lost == 0
        assert len(layer.retry_queue) == 7

    def test_failures_against_a_closed_breaker_do_spend_it(self, geo_asn):
        layer = ResilienceLayer(seed=1)
        layer.tsdb_breaker = CircuitBreaker(
            "tsdb", failure_threshold=1 << 30, recovery_timeout_ns=500_000_000
        )
        service = _service(geo_asn, layer)
        flaky = _FlakyTsdb(service.tsdb, failures=1 << 30)
        service.tsdb = flaky
        _feed(service, [_record(0, timestamp_ns=1_000_000_000)])
        for second in range(2, 2 + layer.retry_policy.max_attempts):
            service._now_ns = second * 1_000_000_000
            service._flush_due_retries()
        assert flaky.attempts == layer.retry_policy.max_attempts
        assert layer.tsdb_breaker.state == BREAKER_CLOSED
        assert len(layer.retry_queue) == 0
        assert layer.points_lost == 1  # the one raw point, shed and counted
