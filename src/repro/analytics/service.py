"""The analytics service: ZeroMQ in → enrich → TSDB + frontend out.

Topology (paper Fig 2): the DPDK stage PUSHes encoded latency records;
a pool of enrichment workers PULLs them ("using multiple threads"),
attaches geography and AS numbers, drops the addresses, and the
results fan out to (a) the time-series database, as both raw per-flow
points and windowed pair rollups, and (b) a PUB socket the WebSocket
frontend subscribes to.

Filter modules — the paper's extensibility example — are predicates
over enriched measurements inserted before the fan-out.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, List, Optional

from repro.analytics.aggregator import PairAggregator
from repro.analytics.enricher import EnrichedMeasurement, Enricher, degraded_measurement
from repro.core.latency import Direction, LatencyRecord
from repro.geo.asn import AsnDatabase
from repro.geo.database import GeoDatabase
from repro.mq.codec import (
    CodecError,
    decode_latency_record,
    encode_enriched,
    encode_latency_record,
)
from repro.mq.frames import Message
from repro.mq.socket import Context, PubSocket, PushSocket
from repro.resilience.breaker import BREAKER_HALF_OPEN
from repro.resilience.invariants import Ledger
from repro.resilience.layer import ResilienceLayer
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.point import Point, series_key

LATENCY_TOPIC = b"latency"
ENRICHED_TOPIC = b"enriched"

MeasurementFilter = Callable[[EnrichedMeasurement], bool]

ANALYTICS_ENDPOINT = "inproc://analytics"


def _dlq_reason(exc: Exception) -> str:
    """A bounded-cardinality reason string for DLQ provenance.

    Digits are collapsed so messages like ``length 57 != 60`` map to a
    single reason (these become metric label values).
    """
    text = re.sub(r"\d+", "N", str(exc))
    name = type(exc).__name__
    return f"{name}: {text}" if text else name


@lru_cache(maxsize=8192)
def _raw_key(src_country, dst_country, src_city, dst_city, src_asn, dst_asn, home_country):
    """The raw point's series key, built once per endpoint identity."""
    direction = Direction.classify(src_country, dst_country, home_country)
    return series_key("latency", {
        "src_country": src_country, "dst_country": dst_country,
        "src_city": src_city, "dst_city": dst_city,
        "src_asn": str(src_asn), "dst_asn": str(dst_asn),
        "direction": direction.value,
    })


def make_pipeline_sink(push: PushSocket) -> Callable[[LatencyRecord], None]:
    """Adapter: a pipeline sink that publishes records over PUSH."""

    def sink(record: LatencyRecord) -> None:
        push.send(
            Message.with_topic(LATENCY_TOPIC, encode_latency_record(record))
        )

    return sink


class AnalyticsService:
    """Enrichment workers plus the TSDB/frontend fan-out.

    Args:
        context: the message-bus context shared with the pipeline.
        geo / asn: enrichment databases.
        tsdb: destination database (a fresh one if omitted).
        num_workers: enrichment worker pool size (the paper's
            "multiple threads"); workers share one PULL socket and are
            polled round-robin.
        endpoint: where the PULL socket binds.
        filters: keep-predicates applied after enrichment; a
            measurement rejected by any filter is counted and dropped.
        telemetry: a :class:`repro.obs.Telemetry` handle shared with
            the pipeline; binds analytics/mq counters to its registry.
        resilience: the :class:`repro.resilience.ResilienceLayer` the
            service runs behind (a default one, seed 0, if omitted):
            undecodable payloads are dead-lettered, enrichment and TSDB
            writes run behind circuit breakers, and failed writes retry
            with backoff on the virtual clock. When the enrichment
            breaker is open, records publish *un-enriched* with the
            ``degraded`` flag rather than being lost.
    """

    def __init__(
        self,
        context: Context,
        geo: GeoDatabase,
        asn: AsnDatabase,
        geo6: Optional[GeoDatabase] = None,
        asn6: Optional[AsnDatabase] = None,
        tsdb: Optional[TimeSeriesDatabase] = None,
        num_workers: int = 4,
        endpoint: str = ANALYTICS_ENDPOINT,
        filters: Optional[List[MeasurementFilter]] = None,
        store_raw_points: bool = True,
        home_country: str = "NZ",
        telemetry=None,
        resilience=None,
    ):
        if num_workers <= 0:
            raise ValueError("need at least one enrichment worker")
        self.context = context
        self.tsdb = tsdb or TimeSeriesDatabase()
        self.pull = context.pull()
        self.pull.bind(endpoint)
        self.endpoint = endpoint
        self.pub: PubSocket = context.pub()
        self.enrichers = [
            Enricher(geo, asn, geo6=geo6, asn6=asn6) for _ in range(num_workers)
        ]
        self._next_worker = 0
        # The write request being gathered: this poll's raw points and
        # closed windows, in arrival order. Empty between polls.
        self._request: List[Point] = []
        self.aggregator = PairAggregator(emit=self._request.extend)
        self.filters: List[MeasurementFilter] = list(filters or [])
        self.store_raw_points = store_raw_points
        self.home_country = home_country
        self.records_in = 0
        self.filtered_out = 0
        self.decode_errors = 0
        # Conservation accounting: every ingested record lands in
        # exactly one of processed / dropped_records / deadlettered.
        self.processed = 0
        self.dropped_records = 0
        self.deadlettered = 0
        self.resilience = resilience or ResilienceLayer()
        self._now_ns = 0
        # Recovery-harness hook: called once per ingested record,
        # playing the role of the tap's hardware counters — an observer
        # that survives the process (see repro.durability.harness).
        self.ingest_observer: Optional[Callable[[], None]] = None
        self.telemetry = telemetry
        self._push_sockets: List[PushSocket] = []
        if telemetry is not None:
            self._bind_registry(telemetry.registry)
            self.resilience.bind_registry(telemetry.registry)

    # -- wiring helpers -----------------------------------------------------

    def connect_pipeline(self) -> PushSocket:
        """Create a PUSH socket connected to this service's input."""
        push = self.context.push()
        push.connect(self.endpoint)
        self._push_sockets.append(push)
        return push

    def make_sink(self) -> Callable[[LatencyRecord], None]:
        """A ready-made pipeline sink feeding this service."""
        return make_pipeline_sink(self.connect_pipeline())

    def subscribe_frontend(self, hwm: int = 10_000):
        """Create a SUB socket receiving this service's enriched feed."""
        sub = self.context.sub(hwm=hwm)
        sub.subscribe(ENRICHED_TOPIC)
        endpoint = f"{self.endpoint}/frontend/{id(sub)}"
        sub.bind(endpoint)
        self.pub.connect(endpoint)
        return sub

    # -- processing ------------------------------------------------------------

    def poll(self, max_messages: int = 256) -> int:
        """Drain up to *max_messages* from the input; returns how many.

        The poll is the unit of work: records are handled one by one,
        in arrival order, but what they produce for the store — raw
        points and any window the aggregator closed on the way — goes
        down as **one** guarded write request, and the enriched feed is
        published after it. Nothing is held across calls.
        """
        messages = self.pull.recv_all(max_messages)
        enriched: List[bytes] = []
        try:
            for message in messages:
                payload = self._process_message(message)
                if payload is not None:
                    enriched.append(payload)
        finally:
            self._write_points()
            send = self.pub.send
            for payload in enriched:
                send(Message.with_topic(ENRICHED_TOPIC, payload))
        return len(messages)

    def _process_message(self, message: Message) -> Optional[bytes]:
        """One record, up to but not including the store and the feed:
        its points join the poll's request; returns its enriched wire
        form, or None when it was dead-lettered, dropped or filtered."""
        self.records_in += 1
        if self.ingest_observer is not None:
            self.ingest_observer()
        payload = message.payload[0] if message.payload else b""
        try:
            record = decode_latency_record(payload)
        except (CodecError, IndexError, ValueError) as exc:
            self.decode_errors += 1
            self.resilience.dlq.push(
                stage="mq.decode",
                reason=_dlq_reason(exc),
                payload=payload,
                timestamp_ns=self._now_ns,
            )
            self.deadlettered += 1
            return None
        if record.timestamp_ns > self._now_ns:
            self._now_ns = record.timestamp_ns
        measurement = self._enrich(record)
        if measurement is None:
            self.dropped_records += 1
            return None
        for keep in self.filters:
            if not keep(measurement):
                self.filtered_out += 1
                self.dropped_records += 1
                return None
        if self.store_raw_points:
            self._request.append(self._raw_point(measurement, self.home_country))
        self.aggregator.add(measurement)
        self.processed += 1
        return encode_enriched(measurement)

    def _enrich(self, record: LatencyRecord) -> Optional[EnrichedMeasurement]:
        """Enrich one record, degrading instead of failing.

        A raising enricher trips the breaker and an open breaker
        short-circuits straight to an un-enriched measurement carrying
        the ``degraded`` flag: the latency is never lost.
        """
        enricher = self.enrichers[self._next_worker]
        self._next_worker = (self._next_worker + 1) % len(self.enrichers)
        res = self.resilience
        breaker = res.enrich_breaker
        if not breaker.allow(self._now_ns):
            res.degraded_published += 1
            return degraded_measurement(record)
        try:
            # Enrichment is also the anonymization step: the output
            # type structurally drops the addresses.
            measurement = enricher.enrich(record)
        except Exception:  # noqa: BLE001 — lookup faults are the fault model
            res.enrich_failures += 1
            breaker.record_failure(self._now_ns)
            res.degraded_published += 1
            return degraded_measurement(record)
        breaker.record_success(self._now_ns)
        return measurement

    # -- guarded TSDB writes ------------------------------------------------

    def _write_points(self) -> None:
        """Send what this poll gathered to the store as one request.

        Due retries flush first, an open breaker defers the request
        instead of hammering a dead store, and a raising write defers
        with exponential backoff until the policy's attempt budget is
        spent — after which the points are shed *and counted*.
        """
        points = self._request[:]
        self._request.clear()
        if not points:
            return
        self._flush_due_retries()
        self._try_write(points, attempts_made=0)

    def _try_write(self, points, attempts_made: int) -> bool:
        res = self.resilience
        now_ns = self._now_ns
        breaker = res.tsdb_breaker
        if not breaker.allow(now_ns):
            self._defer(points, max(attempts_made, 1))
            return False
        probe = breaker.state == BREAKER_HALF_OPEN
        try:
            self.tsdb.write_batch(points)
        except Exception:  # noqa: BLE001 — write faults are the fault model
            res.tsdb_write_failures += 1
            breaker.record_failure(now_ns)
            if probe:
                # The request found the outage, it did not cause it: a
                # failed probe costs no more of its attempt budget than
                # a refusal by the open breaker would have.
                self._defer(points, max(attempts_made, 1))
            elif res.retry_policy.exhausted(attempts_made + 1):
                res.points_lost += len(points)
            else:
                self._defer(points, attempts_made + 1)
            return False
        breaker.record_success(now_ns)
        res.points_written += len(points)
        return True

    def _defer(self, points, attempts_made: int) -> None:
        evicted = self.resilience.retry_queue.schedule(
            points, self._now_ns, attempts_made
        )
        if evicted is not None:
            self.resilience.points_lost += len(evicted)

    def _flush_due_retries(self) -> None:
        res = self.resilience
        for points, attempts_made in res.retry_queue.due(self._now_ns):
            res.retries += 1
            self._try_write(points, attempts_made)

    def finish(self) -> None:
        """Flush aggregation windows and pending retries (end of a run)."""
        self.poll(max_messages=1 << 30)
        self.aggregator.flush()
        self._write_points()
        self._drain_retries()

    def _drain_retries(self, max_rounds: int = 64) -> None:
        """Run down the retry queue by advancing virtual drain time.

        The run is over, so "later" is manufactured: each round jumps
        ``now`` past the longest possible backoff and flushes. Batches
        that still cannot land (breaker stuck open against a dead
        store) are shed and counted rather than leaked.
        """
        res = self.resilience
        for _ in range(max_rounds):
            if not len(res.retry_queue):
                return
            self._now_ns += res.retry_policy.max_delay_ns + 1
            self._flush_due_retries()
        for points, _ in res.retry_queue.drain():
            res.points_lost += len(points)

    @staticmethod
    def _raw_point(m: EnrichedMeasurement, home_country: str) -> Point:
        key = _raw_key(
            m.src_country, m.dst_country, m.src_city, m.dst_city, m.src_asn, m.dst_asn,
            home_country,
        )
        internal_ns, external_ns = m.internal_ns, m.external_ns  # the *_ms properties, inline
        return Point.in_series(key, m.timestamp_ns, {
            "internal_ms": internal_ns / 1e6,
            "external_ms": external_ns / 1e6,
            "total_ms": (internal_ns + external_ns) / 1e6,
        })

    # -- reporting --------------------------------------------------------------

    @property
    def enriched_count(self) -> int:
        return sum(worker.stats.enriched for worker in self.enrichers)

    @property
    def now_ns(self) -> int:
        """The service's virtual now (latest record/measurement seen)."""
        return self._now_ns

    def conservation_ledger(self) -> Ledger:
        """The count-conservation snapshot: ingested == processed +
        dropped + deadlettered. Every run's report checks this at
        drain; it must balance under any fault profile."""
        return Ledger(
            ingested=self.records_in,
            processed=self.processed,
            dropped=self.dropped_records,
            deadlettered=self.deadlettered,
        )

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the analytics tier: conservation counters, the open
        aggregation window, the virtual clock, and the resilience
        bundle (retry-queue point batches ride along as line protocol).
        """
        from repro.tsdb.line_protocol import format_point

        return {
            "records_in": self.records_in,
            "filtered_out": self.filtered_out,
            "decode_errors": self.decode_errors,
            "processed": self.processed,
            "dropped_records": self.dropped_records,
            "deadlettered": self.deadlettered,
            "now_ns": self._now_ns,
            "next_worker": self._next_worker,
            "aggregator": self.aggregator.state_dict(),
            "resilience": self.resilience.state_dict(
                encode_retry_item=lambda points: [format_point(p) for p in points]
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        from repro.tsdb.line_protocol import parse_line

        self.records_in = int(state["records_in"])
        self.filtered_out = int(state["filtered_out"])
        self.decode_errors = int(state["decode_errors"])
        self.processed = int(state["processed"])
        self.dropped_records = int(state["dropped_records"])
        self.deadlettered = int(state["deadlettered"])
        self._now_ns = int(state["now_ns"])
        self._next_worker = int(state["next_worker"]) % len(self.enrichers)
        self.aggregator.load_state(state["aggregator"])
        self.resilience.load_state(
            state["resilience"],
            decode_retry_item=lambda lines: [parse_line(line) for line in lines],
        )

    def _bind_registry(self, registry) -> None:
        """Bridge analytics and message-bus counters into *registry*.

        The binder body lives in :mod:`repro.stack.metrics` with the
        other tiers' binders; imported lazily because the stack package
        imports this module.
        """
        from repro.stack.metrics import bind_analytics_metrics

        bind_analytics_metrics(self, registry)
