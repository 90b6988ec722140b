"""The systems under test: one preset per workload, built fresh per repeat.

A target hides which preset a workload runs behind the four calls the
runners make — ``begin``, ``offer(batch)``, ``finish``, ``audit`` — and
exposes ``delivered``, the list the preset's last tier appends to, so a
runner can note after each batch how many records have arrived.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.config import PipelineConfig
from repro.mq.codec import decode_latency_record
from repro.obs import Telemetry
from repro.stack import (
    StackBuilder,
    build_live_stack,
    build_measure_stack,
    build_sharded_runtime,
)

from benchmarks.e2e.spans import (
    BATCH,
    DRAIN,
    SpanLog,
    StackProbe,
    span_call,
    staged_offer,
)
from benchmarks.e2e.workloads import Trace, Workload

QUEUES = 4
SHARDS = 2
FRONTEND_HWM = 1 << 20

STACK_COUNTERS = (
    "dpdk.nic.drops",
    "dpdk.ring.peak_occupancy",
    "dpdk.rss.queue_skew",
    "core.flow_table.peak_entries",
    "core.flow_table.expired",
    "core.flow_table.evicted",
)
CHECKPOINT_METRICS = (
    "durability.checkpoint.count",
    "durability.checkpoint.ms_p50",
    "durability.checkpoint.ms_max",
    "durability.checkpoint.bytes",
    "durability.checkpoint.load_ms",
)


@dataclass
class Audit:
    """What one repeat's books say, beyond the records themselves."""

    #: Frames the stack dropped or shed without being asked to.
    dropped_frames: int = 0
    #: Conservation equations that did not close (fatal).
    violations: List[str] = field(default_factory=list)


class StackTarget:
    """An in-process :class:`~repro.stack.RuruStack` preset."""

    def __init__(self, workload: Workload, trace: Trace, scratch_dir: str):
        self.preset = workload.preset
        #: Whether the last tier sits behind the enricher, where no
        #: address may survive.
        self.anonymized = workload.preset != "measure"
        self.generator = trace.generator
        self.scratch_dir = scratch_dir
        self.state_dir = None
        self.stack = None
        self.log = None
        self.probe = None
        self.delivered: list = []

    def build(self) -> None:
        generator = self.generator
        if self.preset == "measure":
            stack = build_measure_stack(queues=QUEUES)
            self.delivered = stack.pipeline.measurements
        else:
            if self.preset == "live":
                stack = build_live_stack(
                    generator=generator, queues=QUEUES, frontend_hwm=FRONTEND_HWM
                )
            else:
                self.state_dir = tempfile.mkdtemp(
                    prefix="state-", dir=self.scratch_dir
                )
                stack = (
                    StackBuilder()
                    .generator(generator)
                    .queues(QUEUES)
                    .telemetry(Telemetry())
                    .analytics()
                    .faults("clean")
                    .anomaly("stream")
                    .topk(100)
                    .frontend(hwm=FRONTEND_HWM)
                    .durable(self.state_dir)
                    .build()
                )
            # The benchmark is the frontend's subscriber: the stage hands
            # it every measurement it decodes off the SUB socket.
            self.delivered = []
            stack.graph.get("frontend").observers.append(self.delivered.append)
        self.stack = stack
        self.offer = stack.process_batch
        self.finish = stack.drain

    def trace(self, log: SpanLog) -> None:
        """Swap the plain calls for ones that record spans into *log*."""
        self.log = log
        self.probe = StackProbe()
        self.offer = staged_offer(self.stack, log, self.probe)
        self.finish = span_call(log, DRAIN, self.stack.drain)

    def harvest(self) -> Dict[str, float]:
        """Counters of a traced repeat, read while its stack still stands."""
        pipeline = self.stack.pipeline
        tables = [worker.tracker.table for worker in pipeline.workers]
        balance = pipeline.queue_balance()
        values = {
            "dpdk.nic.drops": pipeline.stats.nic_drops,
            "dpdk.ring.peak_occupancy": max(
                queue.ring.high_watermark for queue in pipeline.nic.queues
            ),
            "dpdk.rss.queue_skew": max(balance) * len(balance),
            "core.flow_table.peak_entries": self.probe.peak_flow_entries,
            "core.flow_table.expired": sum(table.expired for table in tables),
            "core.flow_table.evicted": sum(table.evicted for table in tables),
            "shard.skew": 0.0,
        }
        checkpointer = self.stack.checkpointer
        if checkpointer is None:
            return {**values, **dict.fromkeys(CHECKPOINT_METRICS, 0.0)}
        # Only the checkpoint-stage spans of batches that wrote a file:
        # the rest are the interval check.
        wrote = set(self.probe.checkpoint_batches)
        writes_ms = [
            duration / 1e6
            for seq, duration in self.log.durations_ns("checkpoint")
            if seq in wrote
        ]
        started = time.perf_counter()
        checkpointer.latest_valid()
        values.update(
            {
                "durability.checkpoint.count": checkpointer.checkpoints_written,
                "durability.checkpoint.ms_p50": statistics.median(writes_ms),
                "durability.checkpoint.ms_max": max(writes_ms),
                "durability.checkpoint.bytes": checkpointer.bytes_written,
                "durability.checkpoint.load_ms": (time.perf_counter() - started) * 1e3,
            }
        )
        return values

    def begin(self) -> None:
        pass

    def items(self) -> list:
        return self.delivered

    def audit(self, fed_frames: int) -> Audit:
        stack = self.stack
        stats = stack.pipeline.stats_snapshot()
        audit = Audit(dropped_frames=stats.nic_drops + stats.packets_shed)
        if stats.packets_offered != fed_frames:
            audit.violations.append(
                f"offered {stats.packets_offered} of {fed_frames} fed frames"
            )
        if stats.packets_offered != stats.packets_queued + audit.dropped_frames:
            audit.violations.append("nic: offered != queued + dropped + shed")
        if stats.packets_processed != stats.packets_queued:
            audit.violations.append("workers: processed != queued")
        if len(self.delivered) != stats.measurements:
            audit.violations.append(
                f"last tier holds {len(self.delivered)} records, "
                f"pipeline measured {stats.measurements}"
            )
        if stack.service is not None:
            ledger = stack.service.conservation_ledger()
            if not ledger.ok:
                audit.violations.append(f"analytics: {ledger}")
        return audit

    def dispose(self) -> None:
        if self.stack is not None and self.stack.wal is not None:
            self.stack.wal.close()
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = None
        self.stack = None


class ShardTarget:
    """Two forked worker shards behind the parent's RSS router, in the
    deterministic lock-step mode (one batch in flight per shard)."""

    anonymized = False  # the record sink receives raw latency records

    def __init__(self, workload: Workload, trace: Trace, scratch_dir: str):
        self.runtime = None
        self.report = None
        self.delivered: List[bytes] = []

    def build(self) -> None:
        self.delivered = []
        self.report = None
        self.runtime = build_sharded_runtime(
            shards=SHARDS,
            config=PipelineConfig(num_queues=SHARDS),
            record_sink=self.delivered.append,
        )
        self.offer = self.runtime.offer
        self.finish = self._drain

    def trace(self, log: SpanLog) -> None:
        self.offer = span_call(log, BATCH, self.runtime.offer)
        self.finish = span_call(log, DRAIN, self._drain)

    def harvest(self) -> Dict[str, float]:
        """The parent sees only its own books: per-shard dispatch counts.
        NIC rings and flow tables live in the children."""
        dispatched = [
            ledger["dispatched"] for ledger in self.report.shards.values()
        ]
        values = dict.fromkeys(STACK_COUNTERS + CHECKPOINT_METRICS, 0.0)
        values["shard.skew"] = max(dispatched) * len(dispatched) / sum(dispatched)
        return values

    def begin(self) -> None:
        self.runtime.start()

    def _drain(self) -> None:
        self.report = self.runtime.drain()

    def items(self) -> list:
        return [decode_latency_record(payload) for payload in self.delivered]

    def audit(self, fed_frames: int) -> Audit:
        report = self.report
        ledger = report.ledger
        audit = Audit(
            dropped_frames=ledger.dropped
            + ledger.deadlettered
            + ledger.shed
            + ledger.lost_at_crash
        )
        if ledger.ingested != fed_frames:
            audit.violations.append(
                f"ingested {ledger.ingested} of {fed_frames} fed frames"
            )
        audit.violations.extend(report.failed_checks())
        if len(self.delivered) != report.records["emitted"]:
            audit.violations.append(
                f"sink holds {len(self.delivered)} records, "
                f"shards emitted {report.records['emitted']}"
            )
        return audit

    def dispose(self) -> None:
        if self.runtime is not None:
            # Kills and reaps both children; after a drain they have
            # already exited and this only closes the transports.
            self.runtime.close()
            self.runtime = None


def make_target(workload: Workload, trace: Trace, scratch_dir: str):
    kind = ShardTarget if workload.preset == "shard2" else StackTarget
    return kind(workload, trace, scratch_dir)
