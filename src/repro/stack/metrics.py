"""The exposition is the books.

A run's counters are read once, into its books: the flat ``{term: number}``
of :func:`repro.stack.builder.count_books` (an in-process stack) or
:meth:`repro.shard.runtime.ShardedRuntime.books` (a sharded run). The
registry's one scrape-time collector, :func:`bind_books`, renders them
through :data:`EXPOSITION`, so ``ruru metrics``, snapshots, the
self-monitoring exporter and the SLOs read what chaos and scenarios read.

A row maps a term, or a pattern over terms, to the Prometheus name and
help string the series has always had. In a pattern ``{label}`` is one
dot-free segment and ``{label+}`` one or more, each a label in order; a
name may carry fixed labels (``ruru_retry_total{stage="tsdb"}``). A name
ending ``_total`` is a counter, any other a gauge. A term no row matches
is exported as :func:`derived_name` says; a term of :data:`SUMS` is the
sum of a family's samples and exports nothing itself. A labelled family
is declared (HELP and TYPE) once the books hold the term its patterns
branch from (``pipeline.parse_errors``) or a term that sums it.

Only wall-clock readings keep collectors of their own (:data:`WALL_CLOCK`).
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Mapping, Optional, Tuple

#: Book term or pattern -> (Prometheus name, help).
EXPOSITION: Dict[str, Tuple[str, str]] = {
    # -- the fast path
    "scenario.packets_offered": ("ruru_packets_offered_total", "Frames offered to the NIC."),
    "pipeline.packets_queued": ("ruru_packets_queued_total", "Frames accepted into rx rings."),
    "pipeline.nic_drops": ("ruru_nic_drops_total", "Frames dropped at the NIC (imissed analogue)."),
    "pipeline.packets_shed": ("ruru_packets_shed_total",
        "Frames shed by overload-control policy (not capacity)."),
    "pipeline.parse_errors": ("ruru_parse_errors_total", "Frames rejected by the fast parser."),
    "pipeline.parse_errors.{reason}": ("ruru_parse_errors_by_reason_total",
        "Parse-stage drops bucketed by reason."),
    "pipeline.scheduling_rounds": ("ruru_scheduling_rounds_total",
        "Worker scheduling rounds run by the drain loop."),
    "scenario.measurements": ("ruru_measurements_total",
        "Latency records emitted by all trackers."),
    "tracker.{event}": ("ruru_tracker_events_total",
        "Handshake tracker events, merged across queues."),
    "nic.rx_packets": ("ruru_nic_rx_packets_total", "Frames received into mbufs (ipackets)."),
    "nic.rx_bytes": ("ruru_nic_rx_bytes_total", "Bytes received into mbufs (ibytes)."),
    "nic.imissed": ("ruru_nic_imissed_total", "Frames the NIC could not queue (imissed)."),
    "nic.ierrors": ("ruru_nic_ierrors_total",
        "Malformed frames rejected at classification (ierrors)."),
    "nic.pool.exhausted": ("ruru_mbuf_pool_exhausted_total",
        "Frames refused for want of a packet buffer (imissed, pool-empty)."),
    "nic.pool.in_use": ("ruru_mbuf_pool_in_use",
        "Packet buffers out of the pool (held by queued frames)."),
    "nic.queue.{queue}.rx_packets": ("ruru_nic_queue_rx_packets_total",
        "Frames RSS steered into each rx queue."),
    "nic.queue.{queue}.pending": ("ruru_rx_ring_pending", "Mbufs waiting in each rx ring."),
    "nic.queue.{queue}.high_watermark": ("ruru_rx_ring_high_watermark",
        "Deepest occupancy each rx ring has reached."),
    "nic.queue.{queue}.capacity": ("ruru_rx_ring_capacity",
        "Slots per rx ring (high_watermark/capacity = pressure)."),
    "nic.queue.{queue}.drops": ("ruru_rx_ring_drops_total",
        "Frames refused by a full rx ring (imissed, ring-full)."),
    "nic.queue.{queue}.displaced": ("ruru_rx_ring_displaced_total",
        "Queued frames evicted by priority admission."),
    "worker.{queue}.processed": ("ruru_worker_packets_processed_total",
        "Frames drained off each rx ring."),
    "worker.{queue}.sampled_out": ("ruru_worker_packets_sampled_out_total",
        "Frames skipped by flow sampling, per queue."),
    "worker.{queue}.flow_entries": ("ruru_flow_table_entries",
        "In-flight handshakes resident per queue."),
    # -- analytics and the message bus
    "analytics.records_in": ("ruru_analytics_records_in_total",
        "Encoded latency records received from the pipeline."),
    "analytics.decode_errors": ("ruru_analytics_decode_errors_total",
        "Records that failed frame decoding."),
    "analytics.filtered_out": ("ruru_analytics_filtered_out_total",
        "Enriched measurements rejected by filter modules."),
    "analytics.processed": ("ruru_analytics_processed_total",
        "Measurements published downstream (enriched or degraded)."),
    "analytics.dropped": ("ruru_analytics_dropped_total",
        "Records dropped with accounting (filtered/unresolved/undecodable)."),
    "analytics.deadlettered": ("ruru_analytics_deadlettered_total",
        "Records routed to the dead-letter queue."),
    "scenario.enriched": ("ruru_analytics_enriched_total",
        "Measurements enriched (and thereby anonymized)."),
    "scenario.tsdb_points": ("ruru_tsdb_points", "Points resident in the measurement TSDB."),
    "mq.push.sent": ("ruru_mq_push_sent_total", "Messages sent by pipeline PUSH sockets."),
    "mq.push.dropped": ("ruru_mq_push_dropped_total",
        "Messages dropped with every PULL peer at its HWM."),
    "mq.push.peerless_buffered": ("ruru_mq_peerless_buffered_total",
        "Messages buffered by a PUSH socket with no peer connected."),
    "mq.push.peerless_dropped": ("ruru_mq_peerless_dropped_total",
        "Messages discarded by a peerless PUSH past its own HWM."),
    "mq.pull.received": ("ruru_mq_pull_received_total",
        "Messages accepted by the analytics PULL socket."),
    "mq.pull.dropped": ("ruru_mq_pull_dropped_total",
        "Messages dropped at the analytics PULL high-water mark."),
    "mq.pull.depth": ("ruru_mq_pull_queue_depth", "Messages waiting in the analytics PULL queue."),
    "mq.pub.sent": ("ruru_mq_pub_sent_total", "Enriched messages published toward the frontend."),
    "ledger.balance": ("ruru_ledger_balance",
        "Records ingested and not yet processed, dropped or dead-lettered."),
    # -- resilience
    "resilience.retries": ('ruru_retry_total{stage="tsdb"}',
        "Retry attempts made against a failed dependency."),
    "breaker.{breaker}.state": ("ruru_breaker_state",
        "Circuit breaker state (0=closed, 1=open, 2=half-open)."),
    "breaker.{breaker}.opened": ("ruru_breaker_opened_total",
        "Times each circuit breaker tripped open."),
    "resilience.dlq_depth": ("ruru_dlq_depth",
        "Payloads currently parked in the dead-letter queue."),
    "resilience.dlq.{stage+}.{reason}": ("ruru_dlq_total",
        "Payloads ever dead-lettered, by stage and reason."),
    "resilience.degraded_published": ("ruru_degraded_published_total",
        "Measurements published un-enriched with the degraded flag."),
    "resilience.enrich_failures": ("ruru_enrich_failures_total",
        "Enrichment attempts that raised (geo/ASN lookup faults)."),
    "resilience.tsdb_write_failures": ("ruru_tsdb_write_failures_total",
        "TSDB write attempts that raised."),
    "resilience.points_lost": ("ruru_tsdb_points_lost_total",
        "Points shed after the retry budget or pending bound."),
    "resilience.retry_pending": ("ruru_retry_pending", "Write batches waiting out their backoff."),
    "supervisor.restarts.{role}": ("ruru_supervisor_restarts_total",
        "Crashed lcore poll bodies restarted by the supervisor."),
    "fault.{stage+}.{kind}": ("ruru_faults_injected_total",
        "Faults fired by the chaos injector, by stage and kind."),
    # -- overload control
    "overload.level": ("ruru_overload_level",
        "Degradation-ladder level: 0=full 1=sampled 2=handshake-only 3=headers-only."),
    "overload.level_max": ("ruru_overload_level_max", "Deepest ladder level reached this run."),
    "overload.transitions": ("ruru_overload_transitions_total",
        "Ladder transitions (each one a timestamped event)."),
    "overload.pressure.{stage}": ("ruru_overload_pressure",
        "Peak occupancy fraction per watched stage, last tick."),
    "overload.offered.{class}": ("ruru_overload_offered_total",
        "Frames offered to admission, per class."),
    "overload.admitted.{class}": ("ruru_overload_admitted_total",
        "Frames admitted past the shed ladder, per class."),
    "overload.shed.{class}.{stage}": ("ruru_shed_total",
        "Load shed by the overload controller, per class and stage."),
    "overload.truncated": ("ruru_overload_truncated_total",
        "Frames truncated to snap_len at the headers-only level."),
    "overload.mq_offered": ("ruru_overload_mq_offered_total",
        "Records offered to the MQ admission gate."),
    "oledger.balance": ("ruru_oledger_balance",
        "Records offered to the MQ gate and not yet accounted for."),
    # -- durability
    "checkpoint.written": ("ruru_checkpoint_total", "Checkpoints written."),
    "checkpoint.bytes": ("ruru_checkpoint_bytes_total", "Bytes of checkpoint envelopes written."),
    "checkpoint.corrupt_skipped": ("ruru_checkpoint_corrupt_skipped_total",
        "Damaged checkpoints skipped during recovery."),
    "checkpoint.last_size_bytes": ("ruru_checkpoint_last_size_bytes",
        "Size of the most recent checkpoint envelope."),
    "checkpoint.last_ns": ("ruru_checkpoint_last_ns",
        "Virtual timestamp of the most recent checkpoint."),
    "wal.appends": ("ruru_wal_appends_total", "Write batches appended to the WAL."),
    "wal.aborts": ("ruru_wal_aborts_total", "Abort (compensation) records appended to the WAL."),
    "wal.bytes": ("ruru_wal_bytes_total", "Bytes appended to the WAL."),
    "wal.replayed_batches": ("ruru_wal_replayed_batches_total",
        "Batches re-applied from the WAL at recovery."),
    "wal.replayed_points": ("ruru_wal_replayed_points_total",
        "Points re-applied from the WAL at recovery."),
    "wal.duplicates_skipped": ("ruru_wal_duplicates_skipped_total",
        "Replay batches the store already held (double-write guard)."),
    "wal.expired_dropped": ("ruru_wal_expired_dropped_total",
        "Replayed points dropped because retention had passed."),
    "wal.damaged_frames": ("ruru_wal_damaged_frames_total",
        "Frames the last replay skipped for a failed CRC (one batch each)."),
    "recovery.count": ("ruru_recovery_total", "Times this state directory was recovered from."),
    "recovery.lost_at_crash": ("ruru_recovery_lost_at_crash_total",
        "Records lost between the last checkpoint and the kill."),
    # -- the sharded parent
    "shard.{shard}.up": ("ruru_shard_up", "1 while the shard process is dispatchable, else 0."),
    "shard.{shard}.restarts": ("ruru_shard_restarts_total",
        "Times each shard was respawned after a declared death."),
    "shard.{shard}.lost_at_crash": ("ruru_shard_lost_at_crash_total",
        "Packets in flight to a shard when it was declared down."),
    "shard.{shard}.dispatched": ("ruru_shard_dispatched_total",
        "Packets dispatched to each shard."),
    "shard.{shard}.acked": ("ruru_shard_acked_total",
        "Packets each shard acknowledged processing."),
    "shard.rerouted": ("ruru_shard_rerouted_total", "Packets rerouted away from a down shard."),
    "shard.shed.{klass}": ("ruru_shard_shed_total", "Packets shed because their shard was down."),
}

#: Book terms that are the sum of an exported family's samples (those
#: whose labels match the term's own placeholders); they export nothing.
SUMS: Dict[str, str] = {
    "pipeline.packets_processed": "ruru_worker_packets_processed_total",
    "faults.injected_total": "ruru_faults_injected_total",
    "supervisor.restarts": "ruru_supervisor_restarts_total",
    "resilience.dlq_total": "ruru_dlq_total",
    "overload.shed.{class}": "ruru_shed_total",
    "shard.restarts": "ruru_shard_restarts_total",
    "shard.ledger.lost_at_crash": "ruru_shard_lost_at_crash_total",
    "shard.ledger.shed": "ruru_shard_shed_total",
}

#: Families no book term feeds: the stage profiler's wall-clock timings
#: (and its sampling count) and the shard heartbeat latency, each with a
#: collector of its own.
WALL_CLOCK = ("ruru_stage_", "ruru_prof_", "ruru_shard_heartbeat_latency_ns")

def _compile(pattern: str):
    """A pattern's regex and its label names, in order."""
    pieces = re.split(r"\{(\w+)(\+?)\}", pattern)
    regex, labels = re.escape(pieces[0]), ()
    for label, plus, literal in zip(pieces[1::3], pieces[2::3], pieces[3::3]):
        regex += f"(?P<{label}>{'.+' if plus else '[^.]+'})" + re.escape(literal)
        labels += (label,)
    return re.compile(regex), labels


_EXACT = {term: row for term, row in EXPOSITION.items() if "{" not in term}
_PATTERNS = [(*_compile(term), row) for term, row in EXPOSITION.items() if "{" in term]
_SUMS = [(_compile(term)[0], family) for term, family in SUMS.items()]
#: Labelled family -> (the term its pattern branches from, help, labels).
_LABELLED = {
    name: (term.split(".{")[0], help, _compile(term)[1])
    for term, (name, help) in EXPOSITION.items() if "{" in term
}


def derived_name(term: str) -> str:
    """The Prometheus name of a book term no row names."""
    return "ruru_" + re.sub(r"[^0-9A-Za-z_]", "_", term) + "_total"


def sum_of(term: str) -> Optional[Tuple[str, Dict[str, str]]]:
    """``(family, labels)`` when *term* is the sum of that family's
    samples carrying those label values; None otherwise."""
    for regex, family in _SUMS:
        match = regex.fullmatch(term)
        if match:
            return family, match.groupdict()
    return None


def series_of(term: str) -> Optional[Tuple[str, str, tuple, tuple]]:
    """``(family, help, label names, label values)`` *term* exports as,
    or None when it is a sum."""
    if sum_of(term) is not None:
        return None
    row, labels, values = _EXACT.get(term), (), ()
    if row is None:
        for regex, names, candidate in _PATTERNS:
            match = regex.fullmatch(term)
            if match:
                row, labels, values = candidate, names, match.groups()
                break
        else:
            return derived_name(term), f"The run's books: {term}.", (), ()
    family, _, fixed = row[0].partition("{")
    pairs = re.findall(r'(\w+)="([^"]*)"', fixed)
    return family, row[1], (*(k for k, _ in pairs), *labels), (*(v for _, v in pairs), *values)


def _declared_by(term: str):
    """``(family, help, labels)`` of the labelled families *term*
    declares: those whose patterns branch from it or from a term above
    it, and the one it sums."""
    summed = sum_of(term)
    return [
        (name, help, labels) for name, (stem, help, labels) in _LABELLED.items()
        if (term + ".").startswith(stem + ".") or (summed and name == summed[0])
    ]


def _family(registry, name: str, help: str, labels: tuple):
    make = registry.counter if name.endswith("_total") else registry.gauge
    return make(name, help=help, labels=labels)


def bind_books(registry, books: Callable[[], Mapping[str, float]]) -> None:
    """Render ``books()`` into *registry* at every scrape.

    Each term resolves once, to the registry child it assigns (or to
    nothing, for a sum); later scrapes are one store per term.
    """
    children: Dict[str, object] = {}

    def resolve(term: str):
        for name, help, labels in _declared_by(term):
            _family(registry, name, help, labels)
        series = series_of(term)
        if series is None:
            return None
        name, help, labels, values = series
        family = _family(registry, name, help, labels)
        return family.labels(*values) if labels else family

    def collect() -> None:
        for term, value in books().items():
            if term not in children:
                children[term] = resolve(term)
            child = children[term]
            if child is not None:
                child.value = value

    registry.register_collector(collect)


def bind_sharded(runtime, registry) -> None:
    """A sharded run's books, plus its one wall-clock reading: the
    latest heartbeat latency per shard."""
    bind_books(registry, runtime.books)
    latency = registry.gauge(
        "ruru_shard_heartbeat_latency_ns",
        help="Latest heartbeat one-way latency per shard.",
        labels=("shard",),
    )

    def collect() -> None:
        for handle in runtime.handles.values():
            seen = runtime.detector.last_latency_ns(handle.shard_id)
            if seen is not None:
                latency.labels(handle.name).set(seen)

    registry.register_collector(collect)
