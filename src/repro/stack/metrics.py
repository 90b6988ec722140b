"""Scrape-time metric binders for every tier, in one place.

Hot-path structs keep their plain-int counters; these binders register
scrape-time collectors that assign the live totals into the shared
registry — the single read-out for ``ruru metrics``, JSON snapshots
and the self-monitoring exporter, at zero per-packet cost.

Components call their binder from ``__init__`` when handed a
telemetry handle (so a directly constructed pipeline still exposes its
metrics), and the stack graph binds the cross-stage collectors
(durability, supervisor, injector) during assembly. The binder bodies
live here — not on the components — so the metric surface of the
whole stack is reviewable as one module.

This module intentionally imports nothing from the component modules:
binders receive live objects, which keeps the dependency direction
component → stack.metrics lazy and cycle-free.
"""

from __future__ import annotations


def bind_pipeline_metrics(pipeline, registry) -> None:
    """Publish every pipeline/NIC/worker counter through *registry*."""
    stats = pipeline.counters
    simple = {
        "ruru_packets_offered_total": (
            "Frames offered to the NIC.",
            lambda: stats.packets_offered,
        ),
        "ruru_packets_queued_total": (
            "Frames accepted into rx rings.",
            lambda: stats.packets_queued,
        ),
        "ruru_nic_drops_total": (
            "Frames dropped at the NIC (imissed analogue).",
            lambda: stats.nic_drops,
        ),
        "ruru_packets_shed_total": (
            "Frames shed by overload-control policy (not capacity).",
            lambda: stats.packets_shed,
        ),
        "ruru_parse_errors_total": (
            "Frames rejected by the fast parser.",
            lambda: stats.parse_errors,
        ),
        "ruru_scheduling_rounds_total": (
            "Worker scheduling rounds run by the drain loop.",
            lambda: stats.scheduling_rounds,
        ),
        "ruru_measurements_total": (
            "Latency records emitted by all trackers.",
            lambda: sum(w.stats.measurements for w in pipeline.workers),
        ),
        "ruru_nic_rx_packets_total": (
            "Frames received into mbufs (ipackets).",
            lambda: pipeline.nic.stats.ipackets,
        ),
        "ruru_nic_rx_bytes_total": (
            "Bytes received into mbufs (ibytes).",
            lambda: pipeline.nic.stats.ibytes,
        ),
        "ruru_nic_imissed_total": (
            "Frames the NIC could not queue (imissed).",
            lambda: pipeline.nic.stats.imissed,
        ),
        "ruru_nic_ierrors_total": (
            "Malformed frames rejected at classification (ierrors).",
            lambda: pipeline.nic.stats.ierrors,
        ),
        "ruru_mbuf_pool_exhausted_total": (
            "Frames refused for want of a packet buffer (imissed, pool-empty).",
            lambda: pipeline.nic.pool.exhausted_count,
        ),
    }
    simple_counters = {
        name: (registry.counter(name, help), read)
        for name, (help, read) in simple.items()
    }
    tracker_events = registry.counter(
        "ruru_tracker_events_total",
        help="Handshake tracker events, merged across queues.",
        labels=("event",),
    )
    parse_reasons = registry.counter(
        "ruru_parse_errors_by_reason_total",
        help="Parse-stage drops bucketed by reason.",
        labels=("reason",),
    )
    worker_processed = registry.counter(
        "ruru_worker_packets_processed_total",
        help="Frames drained off each rx ring.",
        labels=("queue",),
    )
    worker_sampled = registry.counter(
        "ruru_worker_packets_sampled_out_total",
        help="Frames skipped by flow sampling, per queue.",
        labels=("queue",),
    )
    nic_queue_rx = registry.counter(
        "ruru_nic_queue_rx_packets_total",
        help="Frames RSS steered into each rx queue.",
        labels=("queue",),
    )
    flow_entries = registry.gauge(
        "ruru_flow_table_entries",
        help="In-flight handshakes resident per queue.",
        labels=("queue",),
    )
    ring_pending = registry.gauge(
        "ruru_rx_ring_pending",
        help="Mbufs waiting in each rx ring.",
        labels=("queue",),
    )
    ring_high_watermark = registry.gauge(
        "ruru_rx_ring_high_watermark",
        help="Deepest occupancy each rx ring has reached.",
        labels=("queue",),
    )
    ring_capacity = registry.gauge(
        "ruru_rx_ring_capacity",
        help="Slots per rx ring (high_watermark/capacity = pressure).",
        labels=("queue",),
    )
    pool_in_use = registry.gauge(
        "ruru_mbuf_pool_in_use",
        help="Packet buffers out of the pool (held by queued frames).",
    )
    ring_drops = registry.counter(
        "ruru_rx_ring_drops_total",
        help="Frames refused by a full rx ring (imissed, ring-full).",
        labels=("queue",),
    )
    ring_displaced = registry.counter(
        "ruru_rx_ring_displaced_total",
        help="Queued frames evicted by priority admission.",
        labels=("queue",),
    )
    tracker_fields = tuple(type(stats.tracker)().__dataclass_fields__)
    # Workers and rx queues are fixed for the pipeline's lifetime,
    # so their labelled children resolve once here; collect() then
    # assigns straight into child.value without labels() lookups.
    tracker_children = [
        (field_name, tracker_events.labels(field_name))
        for field_name in tracker_fields
    ]
    per_worker = [
        (
            worker,
            worker_processed.labels(worker.queue_id),
            worker_sampled.labels(worker.queue_id),
            flow_entries.labels(worker.queue_id),
        )
        for worker in pipeline.workers
    ]
    per_queue = [
        (
            rx_queue,
            nic_queue_rx.labels(rx_queue.queue_id),
            ring_pending.labels(rx_queue.queue_id),
            ring_high_watermark.labels(rx_queue.queue_id),
            ring_capacity.labels(rx_queue.queue_id),
            ring_drops.labels(rx_queue.queue_id),
            ring_displaced.labels(rx_queue.queue_id),
        )
        for rx_queue in pipeline.nic.queues
    ]

    def collect() -> None:
        workers = pipeline.workers
        for counter, read in simple_counters.values():
            counter.value = read()
        for field_name, child in tracker_children:
            total = 0
            for worker in workers:
                total += getattr(worker.stats, field_name)
            child.value = total
        for reason, count in stats.parse_error_reasons.items():
            parse_reasons.labels(reason).value = count
        for worker, processed, sampled, entries in per_worker:
            processed.value = worker.packets_processed
            sampled.value = worker.packets_sampled_out
            entries.set(len(worker.tracker.table))
        pool_in_use.set(pipeline.nic.pool.in_use)
        q_ipackets = pipeline.nic.stats.q_ipackets
        for (
            rx_queue,
            rx_packets,
            pending,
            high_watermark,
            capacity,
            drops,
            displaced,
        ) in per_queue:
            rx_packets.value = q_ipackets.get(rx_queue.queue_id, 0)
            pending.set(len(rx_queue))
            ring = rx_queue.ring
            high_watermark.set(ring.high_watermark)
            capacity.set(ring.capacity)
            drops.value = ring.drops
            displaced.value = ring.displaced

    registry.register_collector(collect)


def bind_analytics_metrics(service, registry) -> None:
    """Bridge analytics and message-bus counters into *registry*."""
    simple = {
        "ruru_analytics_records_in_total": (
            "Encoded latency records received from the pipeline.",
            lambda: service.records_in,
        ),
        "ruru_analytics_decode_errors_total": (
            "Records that failed frame decoding.",
            lambda: service.decode_errors,
        ),
        "ruru_analytics_filtered_out_total": (
            "Enriched measurements rejected by filter modules.",
            lambda: service.filtered_out,
        ),
        "ruru_analytics_processed_total": (
            "Measurements published downstream (enriched or degraded).",
            lambda: service.processed,
        ),
        "ruru_analytics_dropped_total": (
            "Records dropped with accounting (filtered/unresolved/undecodable).",
            lambda: service.dropped_records,
        ),
        "ruru_analytics_deadlettered_total": (
            "Records routed to the dead-letter queue.",
            lambda: service.deadlettered,
        ),
        "ruru_analytics_enriched_total": (
            "Measurements enriched (and thereby anonymized).",
            lambda: service.enriched_count,
        ),
        "ruru_mq_push_sent_total": (
            "Messages sent by pipeline PUSH sockets.",
            lambda: sum(push.sent for push in service._push_sockets),
        ),
        "ruru_mq_push_dropped_total": (
            "Messages dropped with every PULL peer at its HWM.",
            lambda: sum(push.dropped for push in service._push_sockets),
        ),
        "ruru_mq_peerless_buffered_total": (
            "Messages buffered by a PUSH socket with no peer connected.",
            lambda: sum(
                push.buffered_no_peer for push in service._push_sockets
            ),
        ),
        "ruru_mq_peerless_dropped_total": (
            "Messages discarded by a peerless PUSH past its own HWM.",
            lambda: sum(
                push.dropped_no_peer for push in service._push_sockets
            ),
        ),
        "ruru_mq_pull_received_total": (
            "Messages accepted by the analytics PULL socket.",
            lambda: service.pull.received,
        ),
        "ruru_mq_pull_dropped_total": (
            "Messages dropped at the analytics PULL high-water mark.",
            lambda: service.pull.dropped,
        ),
        "ruru_mq_pub_sent_total": (
            "Enriched messages published toward the frontend.",
            lambda: service.pub.sent,
        ),
    }
    counters = {
        name: (registry.counter(name, help), read)
        for name, (help, read) in simple.items()
    }
    tsdb_points = registry.gauge(
        "ruru_tsdb_points", help="Points resident in the measurement TSDB."
    )
    pull_depth = registry.gauge(
        "ruru_mq_pull_queue_depth",
        help="Messages waiting in the analytics PULL queue.",
    )

    def collect() -> None:
        for counter, read in counters.values():
            counter.value = read()
        tsdb_points.set(service.tsdb.total_points())
        pull_depth.set(len(service.pull))

    registry.register_collector(collect)


def bind_overload_metrics(controller, registry) -> None:
    """Publish the overload controller's ladder, pressure and shed
    ledger through *registry* (and thereby the SLO evaluator and the
    self-monitoring TSDB export)."""
    level = registry.gauge(
        "ruru_overload_level",
        help="Degradation-ladder level: 0=full 1=sampled "
        "2=handshake-only 3=headers-only.",
    )
    level_max = registry.gauge(
        "ruru_overload_level_max",
        help="Deepest ladder level reached this run.",
    )
    transitions = registry.counter(
        "ruru_overload_transitions_total",
        help="Ladder transitions (each one a timestamped event).",
    )
    pressure = registry.gauge(
        "ruru_overload_pressure",
        help="Peak occupancy fraction per watched stage, last tick.",
        labels=("stage",),
    )
    offered = registry.counter(
        "ruru_overload_offered_total",
        help="Frames offered to admission, per class.",
        labels=("class",),
    )
    admitted = registry.counter(
        "ruru_overload_admitted_total",
        help="Frames admitted past the shed ladder, per class.",
        labels=("class",),
    )
    shed = registry.counter(
        "ruru_shed_total",
        help="Load shed by the overload controller, per class and stage.",
        labels=("class", "stage"),
    )
    truncated = registry.counter(
        "ruru_overload_truncated_total",
        help="Frames truncated to snap_len at the headers-only level.",
    )
    mq_offered = registry.counter(
        "ruru_overload_mq_offered_total",
        help="Records offered to the MQ admission gate.",
    )

    def collect() -> None:
        level.set(controller.level)
        level_max.set(controller.level_max)
        transitions.value = len(controller.transitions)
        truncated.value = controller.truncated
        mq_offered.value = controller.mq_offered
        for stage, fraction in controller.pressure_by_stage().items():
            pressure.labels(stage).set(fraction)
        for klass, count in controller.offered.items():
            offered.labels(klass).value = count
        for klass, count in controller.admitted.items():
            admitted.labels(klass).value = count
        for (klass, stage), count in controller.shed_counts().items():
            shed.labels(klass, stage).value = count

    registry.register_collector(collect)


def bind_durability_metrics(stack, registry) -> None:
    """Publish ``ruru_checkpoint_*`` / ``ruru_wal_*`` /
    ``ruru_recovery_*`` through the shared metrics registry."""
    ckpt = stack.checkpointer
    simple = {
        "ruru_checkpoint_total": (
            "Checkpoints written.",
            lambda: ckpt.checkpoints_written,
        ),
        "ruru_checkpoint_bytes_total": (
            "Bytes of checkpoint envelopes written.",
            lambda: ckpt.bytes_written,
        ),
        "ruru_checkpoint_corrupt_skipped_total": (
            "Damaged checkpoints skipped during recovery.",
            lambda: ckpt.corrupt_skipped,
        ),
        "ruru_wal_appends_total": (
            "Write batches appended to the WAL.",
            lambda: stack.wal.appends,
        ),
        "ruru_wal_aborts_total": (
            "Abort (compensation) records appended to the WAL.",
            lambda: stack.wal.aborts,
        ),
        "ruru_wal_bytes_total": (
            "Bytes appended to the WAL.",
            lambda: stack.tsdb.wal_bytes,
        ),
        "ruru_wal_replayed_batches_total": (
            "Batches re-applied from the WAL at recovery.",
            lambda: stack.tsdb.replayed_batches,
        ),
        "ruru_wal_replayed_points_total": (
            "Points re-applied from the WAL at recovery.",
            lambda: stack.tsdb.replayed_points,
        ),
        "ruru_wal_duplicates_skipped_total": (
            "Replay batches the store already held (double-write guard).",
            lambda: stack.tsdb.duplicates_skipped,
        ),
        "ruru_wal_expired_dropped_total": (
            "Replayed points dropped because retention had passed.",
            lambda: stack.tsdb.expired_dropped,
        ),
        "ruru_wal_damaged_frames_total": (
            "Frames the last replay skipped for a failed CRC (one batch each).",
            lambda: stack.tsdb.damaged_frames,
        ),
        "ruru_recovery_total": (
            "Times this state directory was recovered from.",
            lambda: stack.recovery_count,
        ),
        "ruru_recovery_lost_at_crash_total": (
            "Records lost between the last checkpoint and the kill.",
            lambda: stack.last_lost_at_crash,
        ),
    }
    counters = {
        name: (registry.counter(name, help), read)
        for name, (help, read) in simple.items()
    }
    last_size = registry.gauge(
        "ruru_checkpoint_last_size_bytes",
        help="Size of the most recent checkpoint envelope.",
    )
    last_at = registry.gauge(
        "ruru_checkpoint_last_ns",
        help="Virtual timestamp of the most recent checkpoint.",
    )

    def collect() -> None:
        for counter, read in counters.values():
            counter.value = read()
        info = ckpt.last_info
        if info is not None:
            last_size.set(info.size_bytes)
            last_at.set(info.now_ns)

    registry.register_collector(collect)
