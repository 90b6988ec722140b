"""The composition root: one builder, two presets, one driver.

Every assembly of the Ruru dataflow is a configuration of
:class:`StackBuilder`, and every in-process run is
:meth:`RuruStack.run` (the one feed loop, :func:`repro.core.feed.drive`,
over :meth:`RuruStack.process_batch`, then the drain). The CLI
commands, chaos runs, the recovery harness and the scenario runner all
reach it through one translation of a scenario spec into a builder
chain (:class:`repro.scenarios.runner.Episode`). Each builder call
assembles its own tier, once, in one fixed, determinism-preserving
order; a tier whose input is missing is refused at ``build()``. The
builder wraps the components in the stage wrappers of
:mod:`repro.stack.stages`, and returns a :class:`RuruStack` whose
cross-cutting behaviour (batch processing, graceful-drain order,
checkpoint payload, crash-point surface) is
derived from the :class:`~repro.stack.stage.StageGraph` traversals.

Presets (kept for the end-to-end benchmark, which builds through them):

========  ==============================================================
measure   fast path only: NIC + workers, records collected in
          ``pipeline.measurements``.
live      full dataflow; the analytics tier carries its resilience
          layer, there is no fault machinery.
========  ==============================================================
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Union

from repro.analytics.service import AnalyticsService, make_pipeline_sink
from repro.analytics.topk import SpaceSaving
from repro.anomaly.manager import AnomalyManager
from repro.core.config import PipelineConfig
from repro.core.feed import drive
from repro.core.pipeline import RuruPipeline
from repro.core.stats import PipelineStats
from repro.faults.adapters import (
    FaultyPushSocket,
    FlakyAsnDatabase,
    FlakyGeoDatabase,
    FlakyTimeSeriesDatabase,
)
from repro.faults.injector import FaultInjector
from repro.faults.profiles import FaultProfile, get_profile
from repro.geo.builder import GeoDbBuilder
from repro.mq.socket import Context
from repro.obs import Telemetry
from repro.obs.slo import DEFAULT_SLOS, evaluate_slos
from repro.overload import CLASSES, GatedPushSocket, OverloadController
from repro.overload import ring_reader, socket_reader
from repro.resilience import Ledger, ResilienceLayer, Supervisor
from repro.stack.metrics import bind_books, bind_sharded
from repro.stack.stage import StageContext, StageGraph
from repro.stack.topology import stage_names
from repro.stack.stages import (
    AnalyticsStage,
    AnomalyStage,
    CheckpointStage,
    FrontendStage,
    MqStage,
    NicStage,
    OverloadStage,
    TelemetryStage,
    TopkStage,
    TsdbStage,
    WorkerStage,
)
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.retention import RetentionPolicy

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.durability.checkpoint import CheckpointInfo

NS_PER_S = 1_000_000_000

#: Checkpoint state layout version (the stack's ``capture_state``).
#: 2: the TSDB log is the store's durable image and the envelope no
#: longer carries the store. 3: fragments are plain rows (tuple keys,
#: one tuple per flow entry, bytes as bytes). Only this layout is read.
STATE_FORMAT = 3


def build_enrichment_dbs(plan=None, country_accuracy: float = 0.98):
    """Synthetic geo/ASN databases over *plan* (the one sanctioned
    :class:`GeoDbBuilder` call site outside this builder's ``build``)."""
    return GeoDbBuilder(plan=plan, country_accuracy=country_accuracy).build()


def count_books(stack: "RuruStack") -> Dict[str, float]:
    """The stack's books: one flat ``{name: number}``, sorted by name.

    The one place an in-process run's counters are read: the drain's
    report, the scenario runner and chaos read them, and the metrics
    registry renders them (:mod:`repro.stack.metrics`). The fast path,
    the frontend and the fault totals are always there; every other
    tier adds its terms only when it was built. Deterministic: the same
    (spec, seed) gives the same dict.
    """
    pipeline = stack.pipeline
    stats, nic = pipeline.stats, pipeline.nic
    injected = stack.injector.injected if stack.injector is not None else {}
    counts = {
        "scenario.packets_offered": stats.packets_offered,
        "scenario.measurements": stats.measurements,
        "pipeline.packets_queued": stats.packets_queued,
        "pipeline.packets_processed": stats.packets_processed,
        "pipeline.packets_shed": stats.packets_shed,
        "pipeline.nic_drops": stats.nic_drops,
        "pipeline.parse_errors": stats.parse_errors,
        "pipeline.scheduling_rounds": stats.scheduling_rounds,
        "nic.rx_packets": nic.stats.ipackets,
        "nic.rx_bytes": nic.stats.ibytes,
        "nic.imissed": nic.stats.imissed,
        "nic.ierrors": nic.stats.ierrors,
        "nic.pool.exhausted": nic.pool.exhausted_count,
        "nic.pool.in_use": nic.pool.in_use,
        "frontend.received": stack.frontend_received,
        "frontend.degraded": stack.frontend_degraded,
        "faults.injected_total": sum(injected.values()),
    }
    for reason, count in stats.parse_error_reasons.items():
        counts[f"pipeline.parse_errors.{reason}"] = count
    for event, count in stats.tracker.state_dict().items():
        counts[f"tracker.{event}"] = count
    for queue in nic.queues:
        ring, term = queue.ring, f"nic.queue.{queue.queue_id}."
        counts.update({
            term + "rx_packets": nic.stats.q_ipackets.get(queue.queue_id, 0),
            term + "pending": len(queue),
            term + "high_watermark": ring.high_watermark,
            term + "capacity": ring.capacity,
            term + "drops": ring.drops,
            term + "displaced": ring.displaced,
        })
    for worker in pipeline.workers:
        term = f"worker.{worker.queue_id}."
        counts[term + "processed"] = worker.packets_processed
        counts[term + "sampled_out"] = worker.packets_sampled_out
        counts[term + "flow_entries"] = len(worker.tracker.table)
    for (stage, kind), count in injected.items():
        counts[f"fault.{stage}.{kind}"] = count
    if stack.supervisor is not None:
        counts["supervisor.restarts"] = stack.supervisor.total_restarts
        for role, count in stack.supervisor.restarts_by_role.items():
            counts[f"supervisor.restarts.{role}"] = count
    service, resilience = stack.service, stack.resilience
    if service is not None:
        ledger = service.conservation_ledger()
        for term in ("ingested", "processed", "dropped", "deadlettered", "balance"):
            counts[f"ledger.{term}"] = getattr(ledger, term)
        pushes = service.push_sockets
        counts.update({
            "scenario.enriched": service.enriched_count,
            "scenario.tsdb_points": stack.tsdb.total_points(),
            "analytics.records_in": service.records_in,
            "analytics.decode_errors": service.decode_errors,
            "analytics.filtered_out": service.filtered_out,
            "analytics.processed": service.processed,
            "analytics.dropped": service.dropped_records,
            "analytics.deadlettered": service.deadlettered,
            "mq.push.sent": sum(push.sent for push in pushes),
            "mq.push.dropped": sum(push.dropped for push in pushes),
            "mq.push.peerless_buffered": sum(push.buffered_no_peer for push in pushes),
            "mq.push.peerless_dropped": sum(push.dropped_no_peer for push in pushes),
            "mq.pull.received": service.pull.received,
            "mq.pull.dropped": service.pull.dropped,
            "mq.pull.depth": len(service.pull),
            "mq.pub.sent": service.pub.sent,
            "resilience.degraded_published": resilience.degraded_published,
            "resilience.dlq_depth": len(resilience.dlq),
            "resilience.dlq_total": resilience.dlq.total,
            "resilience.retries": resilience.retries,
            "resilience.retry_pending": len(resilience.retry_queue),
            "resilience.enrich_failures": resilience.enrich_failures,
            "resilience.tsdb_write_failures": resilience.tsdb_write_failures,
            "resilience.points_written": resilience.points_written,
            "resilience.points_lost": resilience.points_lost,
        })
        for (stage, reason), count in resilience.dlq.summary().items():
            counts[f"resilience.dlq.{stage}.{reason}"] = count
        for breaker in resilience.breakers:
            counts[f"breaker.{breaker.name}.opened"] = breaker.opened_count
            counts[f"breaker.{breaker.name}.state"] = breaker.state
    controller = stack.overload
    if controller is not None:
        counts.update({
            "overload.level": controller.level,
            "overload.level_max": controller.level_max,
            "overload.transitions": len(controller.transitions),
            "overload.truncated": controller.truncated,
            "overload.ring_displacements": controller.ring_displacements,
            "overload.mq_offered": controller.mq_offered,
        })
        for stage, fraction in controller.pressure_by_stage().items():
            counts[f"overload.pressure.{stage}"] = fraction
        for klass in CLASSES:
            counts[f"overload.offered.{klass}"] = controller.offered[klass]
            counts[f"overload.admitted.{klass}"] = controller.admitted[klass]
            counts[f"overload.shed.{klass}"] = controller.shed_total(klass=klass)
        for (klass, stage), count in controller.shed_counts().items():
            counts[f"overload.shed.{klass}.{stage}"] = count
        if service is not None:
            oledger = Ledger.from_parts(
                controller.mq_offered, ledger, controller.shed_total(stage="mq")
            )
            counts["oledger.ingested"] = oledger.ingested
            counts["oledger.shed"] = oledger.shed
            counts["oledger.balance"] = oledger.balance
    checkpointer = stack.checkpointer
    if checkpointer is not None:
        store, last = stack.tsdb, checkpointer.last_info
        counts.update({
            "checkpoint.written": checkpointer.checkpoints_written,
            "checkpoint.bytes": checkpointer.bytes_written,
            "checkpoint.corrupt_skipped": checkpointer.corrupt_skipped,
            "checkpoint.last_size_bytes": last.size_bytes if last is not None else 0,
            "checkpoint.last_ns": last.now_ns if last is not None else 0,
            "wal.appends": stack.wal.appends,
            "wal.aborts": stack.wal.aborts,
            "wal.bytes": store.wal_bytes,
            "wal.replayed_batches": store.replayed_batches,
            "wal.replayed_points": store.replayed_points,
            "wal.duplicates_skipped": store.duplicates_skipped,
            "wal.expired_dropped": store.expired_dropped,
            "wal.damaged_frames": store.damaged_frames,
            "recovery.count": stack.recovery_count,
            "recovery.lost_at_crash": stack.last_lost_at_crash,
        })
    return dict(sorted(counts.items()))


@dataclass
class DrainReport:
    """What one run's graceful drain flushed, stage by stage."""

    stages: List[str]
    stats: PipelineStats
    ledger: Optional[Ledger]
    final_checkpoint: Optional[CheckpointInfo]
    retries_drained: int
    points_written: int
    wal_appends: Optional[int]
    duration_s: float
    stack: Optional["RuruStack"] = field(default=None, repr=False, compare=False)

    @cached_property
    def counts(self) -> Dict[str, int]:
        """The drained stack's books (:func:`count_books`), counted on
        first read — a drain nobody reads the books of counts nothing."""
        return count_books(self.stack)

    @property
    def rejected_while_quiesced(self) -> int:
        return self.stats.packets_rejected_quiesced

    @property
    def ok(self) -> bool:
        """Drained clean: conservation holds and, on a stack with a
        checkpoint stage, the clean checkpoint landed."""
        return (self.ledger is None or self.ledger.ok) and (
            self.final_checkpoint is not None
            or "clean-checkpoint" not in self.stages
        )

    def render(self) -> str:
        lines = ["graceful drain: " + " -> ".join(self.stages)]
        if self.ledger is not None:
            lines.append(f"  conservation: {self.ledger}")
        lines.append(
            f"  rejected while quiesced: {self.rejected_while_quiesced}"
        )
        if self.wal_appends is not None:
            lines.append(
                f"  points written: {self.points_written} "
                f"({self.wal_appends} WAL appends, "
                f"{self.retries_drained} retries drained)"
            )
        if self.final_checkpoint is not None:
            lines.append(
                f"  clean checkpoint: "
                f"{os.path.basename(self.final_checkpoint.path)} "
                f"({self.final_checkpoint.size_bytes} bytes)"
            )
        lines.append("  verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


class RuruStack:
    """One assembled Ruru dataflow plus its stage graph.

    Component handles (``pipeline``, ``service``, ``tsdb``, …) stay
    public — the stack is a composition root, not an opaque box — but
    every cross-cutting traversal goes through :attr:`graph`.
    """

    def __init__(self, graph: StageGraph, components: dict):
        self.graph = graph
        for name, value in components.items():
            setattr(self, name, value)
        self.recovered_from: Optional[CheckpointInfo] = None
        self.recovery_count = 0
        self.last_lost_at_crash = 0
        # Objectives checked at drain time (see drain()); assemblies
        # can replace the default set before draining.
        self.slos = DEFAULT_SLOS
        self.slo_results: List = []

    # -- clocks and boundaries ----------------------------------------------

    @property
    def now_ns(self) -> int:
        """The stack's virtual now (whichever tier has seen furthest)."""
        now = self.pipeline.clock.now_ns
        if self.service is not None:
            now = max(now, self.service.now_ns)
        return now

    def _reached(self, point: str) -> None:
        if self.crash_schedule is not None:
            self.crash_schedule.reached(point)

    def _context(self, batch=None) -> StageContext:
        return StageContext(
            batch=batch, now_fn=lambda: self.now_ns, reached=self._reached
        )

    # -- feeding ------------------------------------------------------------

    def packet_stream(self):
        """The scenario's packets, through the fault injector if any."""
        packets = self.generator.packets()
        if self.injector is not None:
            return self.injector.packet_stream(packets)
        return packets

    def process_batch(self, batch) -> None:
        """Run one feed batch end to end along the stage graph.

        Every registered stage-boundary crash point is instrumented by
        the stage wrappers; after the batch the rings and queues are
        empty, which is what makes a trailing checkpoint a consistent
        cut.
        """
        self.graph.process(self._context(batch=batch))

    def run(
        self,
        packets: Optional[Iterable] = None,
        shutdown_flag: Optional[Callable[[], bool]] = None,
        window_ns: Optional[int] = None,
    ) -> DrainReport:
        """Feed a packet stream along the stage graph, then drain.

        Every tier advances on every batch — analytics polls while
        packets are still arriving — so no queue ever holds more than
        one batch's worth of records.

        Args:
            packets: the frame stream (default: :meth:`packet_stream`).
            shutdown_flag: zero-arg callable polled after each batch
                and before the trailing one; truthy → stop feeding and
                drain (the SIGINT/SIGTERM path).
            window_ns: cut batches by virtual time instead of by
                ``pipeline.feed_batch`` count, so the offered *rate* is
                what fills the rings — overload scenarios see genuine
                occupancy pressure during a ramp.
        """
        drive(
            self.process_batch,
            self.packet_stream() if packets is None else packets,
            size=self.pipeline.feed_batch,
            window_ns=window_ns,
            stop=shutdown_flag,
        )
        return self.drain()

    # -- graceful drain ------------------------------------------------------

    def drain(self) -> DrainReport:
        """The graceful drain protocol, derived from the graph order.

        The report's stage list is what the graph traversal actually
        performed. With telemetry attached, the stack's SLOs are
        evaluated against the registry once the drain completes (every
        bridged counter is final by then) and kept on
        :attr:`slo_results`.
        """
        started = time.perf_counter()
        resilience = self.resilience
        retries_before = resilience.retries if resilience else 0
        stages = self.graph.drain(self._context())
        checkpoint_stage = self.graph.get("checkpoint")
        if self.telemetry is not None:
            self.slo_results = evaluate_slos(self.telemetry.registry, self.slos)
        return DrainReport(
            stages=stages,
            stats=self.pipeline.stats,
            ledger=(
                self.service.conservation_ledger() if self.service else None
            ),
            final_checkpoint=(
                checkpoint_stage.last_clean if checkpoint_stage else None
            ),
            retries_drained=(
                resilience.retries - retries_before if resilience else 0
            ),
            points_written=resilience.points_written if resilience else 0,
            wal_appends=self.wal.appends if self.wal is not None else None,
            duration_s=time.perf_counter() - started,
            stack=self,
        )

    # -- checkpoint capture/restore -----------------------------------------

    def capture_state(self) -> dict:
        """One plain-data snapshot: stack meta plus every stage fragment."""
        state = {
            "format": STATE_FORMAT,
            "meta": {
                "profile": self.profile.name if self.profile else "clean",
                "seed": self.seed,
                "queues": self.queues,
            },
        }
        state.update(self.graph.capture_state())
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`capture_state` snapshot into this stack."""
        if state.get("format") != STATE_FORMAT:
            raise ValueError(
                f"unsupported state format {state.get('format')!r}"
            )
        meta = state["meta"]
        if int(meta["queues"]) != self.queues:
            raise ValueError(
                f"checkpoint built with {meta['queues']} queues, "
                f"runtime has {self.queues}"
            )
        self.graph.load_state(state)

    # -- introspection -------------------------------------------------------

    def fault_points(self) -> dict:
        """Crash points owned by the assembled stages, in graph order."""
        return self.graph.fault_points()

    def status(self) -> dict:
        """A JSON-able snapshot of where records are and where they
        wait, one block per tier this preset assembled. (A live map is
        the caller's own frontend observer; its figures are read off it.)
        """
        pipeline = self.pipeline
        status = {
            "pipeline": {
                **pipeline.stats.summary(),
                "queue_balance": pipeline.queue_balance(),
                "flow_table_occupancy": pipeline.flow_table_occupancy(),
            }
        }
        service = self.service
        if service is not None:
            status["analytics"] = {
                "records_in": service.records_in,
                "enriched": service.enriched_count,
                "filtered_out": service.filtered_out,
                "input_queue_depth": len(service.pull),
            }
            status["tsdb"] = {
                "points": self.tsdb.total_points(),
                "series": dict(self.tsdb.cardinality()),
            }
        stage = self.graph.get("frontend")
        if stage is not None:
            status["frontend"] = {
                "received": stage.received,
                "degraded": stage.degraded,
                "queue_depth": len(stage.sub),
                "dropped": stage.sub.dropped,
            }
        return status

    @property
    def frontend_received(self) -> int:
        stage = self.graph.get("frontend")
        return stage.received if stage is not None else 0

    @property
    def frontend_degraded(self) -> int:
        stage = self.graph.get("frontend")
        return stage.degraded if stage is not None else 0


class StackBuilder:
    """Fluent configuration of one :class:`RuruStack`.

    Construction order inside :meth:`build` mirrors the historical
    harness wiring exactly — injector, controller, enrichment,
    TSDB chain, resilience, service, riders, frontend, sink, supervisor,
    pipeline, checkpointer — and every random source is independently
    seeded, so two builds with the same configuration replay
    byte-identically.
    """

    def __init__(self):
        self._config: Optional[PipelineConfig] = None
        self._queues = 2
        self._telemetry: Optional[Telemetry] = None
        self._generator = None
        self._geo_asn = None
        self._analytics = False
        self._frontend_hwm: Optional[int] = None
        self._anomaly = False
        self._topk_capacity: Optional[int] = None
        self._profile: Optional[FaultProfile] = None
        self._seed = 42
        self._durability: Optional[dict] = None
        self._overload = False

    # -- configuration -------------------------------------------------------

    def pipeline_config(self, config: PipelineConfig) -> "StackBuilder":
        self._config = config
        self._queues = config.num_queues
        return self

    def queues(self, num_queues: int) -> "StackBuilder":
        self._queues = num_queues
        return self

    def telemetry(self, telemetry: Optional[Telemetry]) -> "StackBuilder":
        self._telemetry = telemetry
        return self

    def generator(self, generator) -> "StackBuilder":
        """Use a prebuilt traffic generator (CLI commands pass theirs,
        possibly carrying anomaly injectors)."""
        self._generator = generator
        return self

    def enrichment(self, geo, asn) -> "StackBuilder":
        """Use explicit enrichment databases (default: synthesized from
        the generator's plan)."""
        self._geo_asn = (geo, asn)
        return self

    def analytics(self) -> "StackBuilder":
        self._analytics = True
        return self

    def frontend(self, hwm: int = 10_000) -> "StackBuilder":
        self._frontend_hwm = hwm
        return self

    def anomaly(self, mode: str = "stream") -> "StackBuilder":
        """Attach the anomaly detectors: raw packets via a pipeline
        observer, measurements off the enriched frontend feed.
        ``stream`` is the only wiring; the argument is what remains of
        a choice some callers still spell out.
        """
        if mode != "stream":
            raise ValueError(f"unknown anomaly mode {mode!r}")
        self._anomaly = True
        return self

    def topk(self, capacity: int = 100) -> "StackBuilder":
        """Count heavy-hitter location pairs off the enriched frontend
        feed."""
        self._topk_capacity = capacity
        return self

    def faults(
        self, profile: Union[str, FaultProfile], seed: Optional[int] = None
    ) -> "StackBuilder":
        """Run under a named fault profile: the injector, the fault
        adapters on whatever tiers are built, and the supervisor that
        catches the worker crashes the profile arms."""
        self._profile = (
            get_profile(profile) if isinstance(profile, str) else profile
        )
        if seed is not None:
            self._seed = seed
        return self

    def durable(
        self,
        state_dir: str,
        checkpoint_interval_ns: int = NS_PER_S,
        keep_checkpoints: int = 2,
        retention_ns: Optional[int] = None,
        crash_schedule=None,
        fsync_wal: bool = False,
    ) -> "StackBuilder":
        """Add the durability tail: the analytics tier's store behind a
        write-ahead log, plus the checkpointer."""
        self._durability = {
            "state_dir": str(state_dir),
            "checkpoint_interval_ns": checkpoint_interval_ns,
            "keep_checkpoints": keep_checkpoints,
            "retention_ns": retention_ns,
            "crash_schedule": crash_schedule,
            "fsync_wal": fsync_wal,
        }
        return self

    def overload(self) -> "StackBuilder":
        """Enable closed-loop overload control (backpressure sensing +
        the priority shed ladder) across the whole stack, at the
        controller's defaults."""
        self._overload = True
        return self

    # -- assembly ------------------------------------------------------------

    def build(self) -> RuruStack:
        """Assemble each configured tier once, in a fixed order.

        A tier appends its stages where it is built and the graph is
        ordered by the topology. A tier whose input is missing —
        ``durable``, ``anomaly``, ``topk`` or ``frontend`` without
        ``analytics`` — is refused here rather than left out.
        """
        durability = self._durability
        riders = [
            name
            for name, asked in (
                ("durable", durability is not None),
                ("anomaly", self._anomaly),
                ("topk", self._topk_capacity is not None),
                ("frontend", self._frontend_hwm is not None),
            )
            if asked
        ]
        if riders and not self._analytics:
            raise ValueError(
                "; ".join(f"{name} requires analytics" for name in riders)
            )
        frontend_hwm = self._frontend_hwm
        if frontend_hwm is None and (self._anomaly or self._topk_capacity is not None):
            # The riders ride the enriched feed: subscribe it for them.
            frontend_hwm = 10_000

        profile = self._profile
        telemetry = self._telemetry
        stages = []
        observers = []
        # -- faults: the injector; its adapters wrap whatever tiers exist
        injector = (
            FaultInjector(profile, seed=self._seed) if profile is not None else None
        )

        # -- overload: the controller (its sensors attach below)
        controller = None
        if self._overload:
            controller = OverloadController()
            stages.append(OverloadStage(controller))

        generator = self._generator
        crash_schedule = retention_ns = state_dir = None
        if durability is not None:
            crash_schedule = durability["crash_schedule"]
            retention_ns = durability["retention_ns"]
            state_dir = durability["state_dir"]

        # -- analytics: store, resilience layer, service, riders, sink
        service = resilience = tsdb = wal = None
        anomaly = topk = frontend_sub = sink = None
        if self._analytics:
            if self._geo_asn is not None:
                geo, asn = self._geo_asn
            else:
                plan = generator.plan if generator is not None else None
                geo, asn = GeoDbBuilder(plan=plan).build()
            tsdb = TimeSeriesDatabase()
            if retention_ns is not None:
                tsdb.add_retention_policy(RetentionPolicy(duration_ns=retention_ns))
            if injector is not None:
                if profile.geo_failure_rate > 0:
                    geo = FlakyGeoDatabase(geo, injector)
                if profile.asn_failure_rate > 0:
                    asn = FlakyAsnDatabase(asn, injector)
                tsdb = flaky_store = FlakyTimeSeriesDatabase(tsdb, injector)
            if durability is not None:
                # Lazy: repro.durability imports this module back.
                from repro.durability.wal import DurableTsdb, WriteAheadLog

                os.makedirs(state_dir, exist_ok=True)
                wal = WriteAheadLog(
                    os.path.join(state_dir, "tsdb.wal"),
                    fsync=durability["fsync_wal"],
                )
                tsdb = DurableTsdb(tsdb, wal, crash_schedule=crash_schedule)
                stages += [TsdbStage(tsdb, wal), CheckpointStage(tsdb, retention_ns)]
            resilience = ResilienceLayer(seed=self._seed)
            service = AnalyticsService(
                Context(),
                geo,
                asn,
                tsdb=tsdb,
                resilience=resilience,
            )
            if injector is not None:
                # Brown-outs are keyed on write time, not data time:
                # retried writes land once the window clears.
                flaky_store.now_fn = lambda: service.now_ns
            stages += [MqStage(service), AnalyticsStage(service)]

            feed_observers = []
            if self._anomaly:
                anomaly = AnomalyManager()
                observers.append(anomaly.observe_burst)
                feed_observers.append(anomaly.observe_measurement)
                stages.append(AnomalyStage(anomaly))
            if self._topk_capacity is not None:
                topk = SpaceSaving(capacity=self._topk_capacity)
                feed_observers.append(lambda m: topk.add(m.location_pair))
                stages.append(TopkStage(topk))
            if frontend_hwm is not None:
                frontend_sub = service.subscribe_frontend(hwm=frontend_hwm)
                stages.append(FrontendStage(frontend_sub, feed_observers))

            socket = service.connect_pipeline()
            if controller is not None:
                # Gate innermost: injected drops never reach the gate's
                # offered count and injected duplicates are offered
                # twice, so the extended ledger (gate offered ==
                # ingested + shed@mq) stays exact under every profile.
                socket = GatedPushSocket(socket, controller)
            if injector is not None:
                socket = FaultyPushSocket(socket, injector)
            sink = make_pipeline_sink(socket)

        supervisor = None
        if injector is not None:
            # The faults tier's last piece: what catches the crashes the
            # injector arms in the worker polls.
            supervisor = Supervisor()
        if telemetry is not None:
            stages.append(TelemetryStage(telemetry))

        # -- the fast path
        pipeline = RuruPipeline(
            config=self._config or PipelineConfig(num_queues=self._queues),
            sink=sink,
            observers=observers,
            supervisor=supervisor,
            poll_wrapper=injector.crashy_poll if injector is not None else None,
            admission=controller,
        )
        stages += [NicStage(pipeline), WorkerStage(pipeline)]
        if controller is not None:
            # Sensors attach once the queues exist; every watched stage
            # reports peak-within-batch occupancy to the one controller.
            controller.watch_stage(
                "nic", [ring_reader(q.ring) for q in pipeline.nic.queues]
            )
            if service is not None:
                controller.watch_stage("mq", [socket_reader(service.pull)])
            if frontend_sub is not None:
                controller.watch_stage(
                    "frontend", [socket_reader(frontend_sub)]
                )

        order = stage_names()
        stages.sort(key=lambda stage: order.index(stage.name))
        stack = RuruStack(
            StageGraph(stages),
            components={
                "profile": profile,
                "seed": self._seed,
                "queues": (
                    self._config.num_queues if self._config else self._queues
                ),
                "telemetry": telemetry,
                "generator": generator,
                "injector": injector,
                "overload": controller,
                "resilience": resilience,
                "supervisor": supervisor,
                "service": service,
                "pipeline": pipeline,
                "tsdb": tsdb,
                "wal": wal,
                "anomaly": anomaly,
                "topk": topk,
                "frontend": frontend_sub,
                "crash_schedule": crash_schedule,
                "state_dir": state_dir,
                "retention_ns": retention_ns,
                "checkpointer": None,
            },
        )
        if durability is not None:
            from repro.durability.checkpoint import Checkpointer

            stack.checkpointer = Checkpointer(
                state_dir=state_dir,
                capture=stack.capture_state,
                interval_ns=durability["checkpoint_interval_ns"],
                keep=durability["keep_checkpoints"],
                crash_schedule=crash_schedule,
                fsync=durability["fsync_wal"],
            )
            checkpoint_stage = stack.graph.get("checkpoint")
            checkpoint_stage.checkpointer = stack.checkpointer
        if telemetry is not None:
            bind_books(telemetry.registry, lambda: count_books(stack))
            # Timing is a graph concern: the graph times every
            # assembled stage itself, so the profile surface stays
            # derived from the topology.
            stack.graph.bind_profiler(telemetry.profiler)
        return stack


# -- presets -----------------------------------------------------------------


def build_measure_stack(
    queues: int = 4,
    telemetry: Optional[Telemetry] = None,
    config: Optional[PipelineConfig] = None,
) -> RuruStack:
    """``measure``: the fast path only, records kept in memory."""
    builder = StackBuilder().telemetry(telemetry)
    if config is not None:
        builder.pipeline_config(config)
    else:
        builder.queues(queues)
    return builder.build()


def build_live_stack(
    generator=None,
    queues: int = 4,
    telemetry: Optional[Telemetry] = None,
    frontend_hwm: Optional[int] = None,
    anomaly: bool = False,
    geo_asn=None,
    config: Optional[PipelineConfig] = None,
) -> RuruStack:
    """``live``: full dataflow with its resilience layer, no faults."""
    builder = StackBuilder().telemetry(telemetry).analytics()
    if generator is not None:
        builder.generator(generator)
    if geo_asn is not None:
        builder.enrichment(*geo_asn)
    if config is not None:
        builder.pipeline_config(config)
    else:
        builder.queues(queues)
    if frontend_hwm is not None:
        builder.frontend(hwm=frontend_hwm)
    if anomaly:
        builder.anomaly()
    return builder.build()


def build_sharded_runtime(
    shards: int = 2, telemetry: Optional[Telemetry] = None, **kwargs
):
    """``shard``: the RX-queue workers as forked OS processes.

    Each RX queue's worker becomes its own OS process behind the MQ
    frame codec over a pair of pipes; the parent keeps the RSS router
    and the shard control plane (lock-step dispatch, the heartbeat
    lease, restarts, the global conservation ledger). *kwargs* are
    :class:`~repro.shard.runtime.ShardedRuntime`'s (``config``,
    ``policy``, ``checkpoint_every_batches``, ``record_sink``, …).
    """
    # Lazy: repro.shard composes pieces from several packages; importing
    # it at module scope would cycle back through repro.stack.
    from repro.shard.runtime import ShardedRuntime

    runtime = ShardedRuntime(shards, **kwargs)
    if telemetry is not None:
        bind_sharded(runtime, telemetry.registry)
    return runtime

