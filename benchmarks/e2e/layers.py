"""Per-layer metrics: the traced run (T) and the layer replay (R).

(T) Traced repeats alternate with untraced ones, so the cost budget —
stage spans, the walk's own time, the drain — is set against an
untraced wall measured seconds, not minutes, apart. (R) Each layer's
public entry point is then timed alone, on inputs captured from the
same workload: frames -> parsed packets -> records -> enriched
measurements -> points.

A value of 0 means the layer is not on this workload's path (a stage
its preset does not assemble, the shard lanes on an in-process stack).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List, Tuple

from repro.analytics.enricher import Enricher
from repro.analytics.service import LATENCY_TOPIC, AnalyticsService
from repro.anomaly.manager import AnomalyManager
from repro.core.config import PipelineConfig
from repro.core.handshake import HandshakeTracker
from repro.dpdk.nic import NicPort
from repro.dpdk.rss import RssHasher
from repro.durability.wal import WriteAheadLog
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.mq.codec import (
    decode_enriched,
    decode_latency_record,
    encode_enriched,
    encode_latency_record,
)
from repro.mq.frames import Message
from repro.mq.socket import Context
from repro.net.parser import PacketParser, ParseError
from repro.shard import protocol
from repro.shard.wire import StreamDecoder, encode_message
from repro.stack import build_enrichment_dbs, build_measure_stack
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.query import Query

from benchmarks.e2e import bench as e2e
from benchmarks.e2e.spans import BATCH, DRAIN, SpanLog
from benchmarks.e2e.stats import NS_PER_S, percentile, undisturbed
from benchmarks.e2e.targets import QUEUES, SHARDS
from benchmarks.e2e.workloads import FEED_BATCH

_clock = time.perf_counter_ns

BURST = PipelineConfig().burst_size

#: Stages of the declared topology, as ``stack.<stage>.us_per_packet``.
STAGES = (
    "overload",
    "nic",
    "workers",
    "mq",
    "analytics",
    "anomaly",
    "topk",
    "frontend",
    "telemetry",
    "tsdb",
    "checkpoint",
)

#: Share of ``--seconds`` spent alternating untraced and traced repeats;
#: the replay takes what is left.
TRACED_SHARE = 0.6
#: At least this many repeats of each kind, so one stalled repeat cannot set a figure.
MIN_TRACED = 3


def per_layer(bench: e2e.Bench, seconds: float) -> Dict[str, float]:
    values = traced(bench, seconds * TRACED_SHARE)
    values.update(replay(bench))
    values["traffic.generate_s"] = bench.trace.generate_s
    repeats = bench.repeats
    values["loss_ratio"] = sum(r.failed for r in repeats) / sum(
        r.expected for r in repeats
    )
    return values


# -- (T) the traced run --------------------------------------------------------


def traced(bench: e2e.Bench, seconds: float) -> Dict[str, float]:
    bench.repeat(keep=False)
    started = time.perf_counter()
    while len(bench.repeats) < 2 * MIN_TRACED or time.perf_counter() - started < seconds:
        bench.repeat(check_leaks=not bench.repeats)
        bench.repeat(log=SpanLog())
    plain = bench.plain
    spanned = [repeat for repeat in bench.repeats if repeat.log is not None]
    last = spanned[-1]
    last.log.write(
        os.path.join(e2e.RESULTS_DIR, f"trace-{bench.workload.name}.json"),
        workload=bench.workload.name,
        seed=bench.seed,
        digest=bench.digest,
    )

    def steady_ns(name: str) -> float:
        """Cost of every span called *name*: per batch its undisturbed
        value across the traced repeats, summed (see bench.steady_sum)."""
        return e2e.steady_sum(
            [[ns for _, ns in repeat.log.durations_ns(name)] for repeat in spanned]
        )

    packets, batches = last.packets, len(bench.batches)
    plain_busy_ns = e2e.steady_busy_ns(plain)
    batch_ns, drain_ns = steady_ns(BATCH), steady_ns(DRAIN)
    stage_ns = {stage: steady_ns(stage) for stage in STAGES}
    # The walk's self time: each batch span minus the stage spans under it.
    walk_ns = e2e.steady_sum(
        [
            [own for own, name in zip(r.log.self_ns(), r.log.name) if name == BATCH]
            for r in spanned
        ]
    )
    # A shard "batch" span has no stage under it: it is the whole offer
    # (route, encode, send, wait for both acks), reported as dispatch.
    staged = bench.workload.preset != "shard2"
    values = {
        f"stack.{stage}.us_per_packet": ns / 1e3 / packets
        for stage, ns in stage_ns.items()
    }
    values.update(
        {
            "stack.graph.self_us_per_packet": (
                walk_ns / 1e3 / packets if staged else 0.0
            ),
            "stack.drain.ms": drain_ns / 1e6,
            "stack.budget_residual_ratio": (
                abs(batch_ns + drain_ns - plain_busy_ns) / plain_busy_ns
            ),
            "trace.overhead_ratio": e2e.steady_busy_ns(spanned) / plain_busy_ns - 1.0,
            "obs.telemetry.tick_us_per_batch": stage_ns["telemetry"] / 1e3 / batches,
            "shard.dispatch.us_per_batch": 0.0 if staged else batch_ns / 1e3 / batches,
            "shard.drain.ms": 0.0 if staged else drain_ns / 1e6,
        }
    )
    values.update(last.harvest)

    pooled = e2e.pooled_freshness_ms(plain)
    values["freshness_p99_ms"] = percentile(pooled, 0.99)
    lag = [ns / 1e6 for r in plain for ns in r.lag_ns]
    # A few hundred paced batches per run support a p95, not a p99.
    values["loadgen.lag_p95_ms"] = percentile(lag, 0.95) if lag else 0.0
    values["loadgen.lag_max_ms"] = max(lag, default=0.0)
    values["loadgen.freshness_max_ms"] = max(pooled) if lag else 0.0

    if staged:
        values["shard.ipc_overhead_ratio"] = 0.0
    else:
        # The same trace through in-process workers: what dispatch,
        # wire and ack cost on top, in CPU per packet.
        shard_cpu_us = e2e.steady_cpu_ns(plain) / 1e3 / packets
        values["shard.ipc_overhead_ratio"] = shard_cpu_us / _in_process_cpu_us(bench)
    return values


def _in_process_cpu_us(bench: e2e.Bench) -> float:
    """CPU per packet of ``build_measure_stack(queues=2)`` on the trace."""
    samples = []
    for _ in range(3):
        stack = build_measure_stack(queues=SHARDS)
        started = time.process_time_ns()
        for batch in bench.batches:
            stack.process_batch(batch)
        stack.drain()
        samples.append((time.process_time_ns() - started) / 1e3)
    return undisturbed(samples) / len(bench.trace.frames)


# -- (R) the layer replay ------------------------------------------------------


def _timed(body: Callable[[], object]) -> Tuple[int, object]:
    started = _clock()
    result = body()
    return _clock() - started, result


def replay(bench: e2e.Bench) -> Dict[str, float]:
    values: Dict[str, float] = {}
    records = _replay_fast_path(bench, values)
    _replay_record_tiers(bench, records, values)
    _replay_shard_wire(bench, values)
    return values


def _replay_fast_path(bench: e2e.Bench, values: Dict[str, float]) -> list:
    """net, dpdk, core: frames in, latency records out."""
    frames = bench.trace.frames

    # net: frames -> parsed packets (non-TCP and malformed frames raise).
    parser = PacketParser()

    def parse_all():
        parsed, rejected = [], 0
        for frame in frames:
            try:
                parsed.append(parser.parse(frame.data, frame.timestamp_ns))
            except ParseError:
                rejected += 1
        return parsed, rejected

    elapsed, (parsed, rejected) = _timed(parse_all)
    values["net.parse.ns_per_packet"] = elapsed / len(frames)
    values["net.parse.reject_share"] = rejected / len(frames)

    # dpdk: the Toeplitz hash alone, then receive + rx_burst per feed batch.
    hasher = RssHasher(num_queues=QUEUES)
    elapsed, _ = _timed(
        lambda: [
            hasher.hash_tuple(p.src_ip, p.dst_ip, p.src_port, p.dst_port, p.is_ipv6)
            for p in parsed
        ]
    )
    values["dpdk.rss.ns_per_packet"] = elapsed / len(parsed)

    nic = NicPort(num_queues=QUEUES)

    def receive_all():
        for batch in bench.batches:
            for frame in batch:
                nic.receive(frame)
            for queue_id in range(QUEUES):
                while True:
                    mbufs = nic.rx_burst(queue_id)
                    if not mbufs:
                        break
                    for mbuf in mbufs:
                        mbuf.free()

    elapsed, _ = _timed(receive_all)
    values["dpdk.nic.receive_ns_per_packet"] = elapsed / len(frames)

    # core: parsed packets -> latency records.
    records: list = []
    tracker = HandshakeTracker(config=PipelineConfig(), sink=records.append)

    def track_all():
        # Sweep once per rx burst, as the queue worker does.
        for start in range(0, len(parsed), BURST):
            burst = parsed[start : start + BURST]
            for packet in burst:
                tracker.process(packet)
            tracker.maybe_sweep(burst[-1].timestamp_ns)

    elapsed, _ = _timed(track_all)
    values["core.tracker.ns_per_packet"] = elapsed / len(parsed)
    values["core.tracker.yield_ratio"] = len(records) / len(parsed)
    return records


def _replay_record_tiers(bench: e2e.Bench, records: list, values: Dict[str, float]) -> None:
    """mq, geo, analytics, anomaly, tsdb, frontend, durability: what one
    latency record costs on its way to the store and the map."""
    # mq: codec and one PUSH -> PULL hop.
    elapsed, payloads = _timed(lambda: [encode_latency_record(r) for r in records])
    values["mq.codec.encode_ns_per_record"] = elapsed / len(records)
    elapsed, _ = _timed(lambda: [decode_latency_record(p) for p in payloads])
    values["mq.codec.decode_ns_per_record"] = elapsed / len(records)

    context = Context()
    pull = context.pull()
    pull.bind("inproc://replay")
    push = context.push()
    push.connect("inproc://replay")

    def hop_all():
        for start in range(0, len(payloads), FEED_BATCH):
            for payload in payloads[start : start + FEED_BATCH]:
                push.send(Message.with_topic(LATENCY_TOPIC, payload))
            pull.recv_all()

    elapsed, _ = _timed(hop_all)
    values["mq.pushpull.ns_per_record"] = elapsed / len(records)

    # geo: both databases, both endpoints (IPv6 has no database here, as
    # in the live preset, so only IPv4 addresses are looked up).
    geo, asn = build_enrichment_dbs(plan=bench.trace.generator.plan)
    addresses = [
        address
        for record in records
        if not record.is_ipv6
        for address in (record.src_ip, record.dst_ip)
    ]

    def lookup_all():
        for address in addresses:
            geo.lookup(address)
            asn.lookup(address)

    elapsed, _ = _timed(lookup_all)
    values["geo.lookup.ns_per_address"] = elapsed / len(addresses)

    # analytics: the enricher alone, then the whole service over a
    # pre-filled PULL socket (decode, enrich, TSDB write, publish).
    enricher = Enricher(geo, asn)
    elapsed, measurements = _timed(lambda: [enricher.enrich(r) for r in records])
    values["analytics.enrich.us_per_record"] = elapsed / 1e3 / len(records)

    store = _RecordingTsdb()
    service = AnalyticsService(Context(), geo, asn, tsdb=store, num_workers=QUEUES)
    feed = service.connect_pipeline()

    for payload in payloads:
        feed.send(Message.with_topic(LATENCY_TOPIC, payload))
    if feed.dropped:
        raise RuntimeError(f"replay overran the PULL socket: {feed.dropped} dropped")

    def serve_all():
        service.poll(max_messages=1 << 30)
        service.finish()

    elapsed, _ = _timed(serve_all)
    values["analytics.service.us_per_record"] = elapsed / 1e3 / len(records)

    manager = AnomalyManager()
    elapsed, _ = _timed(lambda: [manager.observe_measurement(m) for m in measurements])
    values["anomaly.observe.us_per_record"] = elapsed / 1e3 / len(records)

    # tsdb: the write path alone, and the dashboard's read beside it on
    # the store the service just filled.
    point_batches = store.batches
    fresh_store = TimeSeriesDatabase()
    elapsed, _ = _timed(
        lambda: [fresh_store.write_batch(batch) for batch in point_batches]
    )
    values["tsdb.write.us_per_point"] = elapsed / 1e3 / store.total_points()
    values["tsdb.points"] = store.total_points()
    values["tsdb.series"] = sum(store.cardinality().values())
    dashboard = Query(
        "latency",
        "total_ms",
        "median",
        group_by_tags=["dst_country"],
        group_by_time_ns=10 * NS_PER_S,
    )
    elapsed, _ = _timed(lambda: store.query(dashboard))
    values["tsdb.query.ms"] = elapsed / 1e6

    # frontend: the SUB feed's decode, then map frames over a WebSocket.
    enriched = [encode_enriched(m) for m in measurements]
    elapsed, _ = _timed(lambda: [decode_enriched(p) for p in enriched])
    values["frontend.decode.us_per_record"] = elapsed / 1e3 / len(records)
    channel = WebSocketChannel()
    view = LiveMapView(channel=channel)

    def map_all():
        for measurement in measurements:
            view.add_measurement(measurement, measurement.timestamp_ns)
            view.tick(measurement.timestamp_ns)
        channel.client_recv_all_json()

    elapsed, _ = _timed(map_all)
    values["frontend.map.us_per_record"] = elapsed / 1e3 / len(records)
    values["frontend.ws.bytes_per_record"] = channel.bytes_to_client / len(records)

    # durability: WAL append and its read side.
    wal_path = os.path.join(bench.scratch_dir, "replay.wal")
    wal = WriteAheadLog(wal_path)

    def append_all():
        for batch_id, batch in enumerate(point_batches, start=1):
            wal.append(batch_id, batch)
        wal.sync()

    elapsed, _ = _timed(append_all)
    values["durability.wal.append_us_per_batch"] = elapsed / 1e3 / len(point_batches)
    values["durability.wal.bytes_per_record"] = os.path.getsize(wal_path) / len(records)
    elapsed, _ = _timed(wal.replay)
    values["durability.wal.replay_ms"] = elapsed / 1e6
    wal.close()


def _replay_shard_wire(bench: e2e.Bench, values: Dict[str, float]) -> None:
    """shard: every feed batch across the wire codec, both directions."""
    triples = [
        [(frame.timestamp_ns, 0, frame.data) for frame in batch]
        for batch in bench.batches
    ]
    elapsed, blobs = _timed(
        lambda: [
            encode_message(protocol.encode_batch(seq, batch))
            for seq, batch in enumerate(triples)
        ]
    )
    values["shard.wire.encode_us_per_batch"] = elapsed / 1e3 / len(triples)
    decoder = StreamDecoder()

    def decode_all():
        for blob in blobs:
            for message in decoder.feed(blob):
                protocol.decode_batch(message)

    elapsed, _ = _timed(decode_all)
    values["shard.wire.decode_us_per_batch"] = elapsed / 1e3 / len(triples)


class _RecordingTsdb(TimeSeriesDatabase):
    """The store behind the replayed analytics service; also keeps every
    batch in the shape it was written, as input for the layers behind."""

    def __init__(self):
        super().__init__()
        self.batches: List[list] = []

    def write_batch(self, points) -> int:
        batch = list(points)
        self.batches.append(batch)
        return super().write_batch(batch)
