"""Concrete stage wrappers binding running components to the Stage
protocol.

Each wrapper owns the *lifecycle* of one tier — its slice of batch
processing, its drain steps, and its checkpoint fragment — while the
component itself (pipeline, analytics service, WAL-backed TSDB, …)
keeps owning the behaviour. The builder assembles these into a
:class:`~repro.stack.stage.StageGraph`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.mq.codec import decode_enriched
from repro.stack.stage import Stage, StageContext
from repro.stack.topology import get_spec

#: Records the analytics stage takes before its ``analytics.ingest``
#: crash point, so the point really sits mid-queue.
MID_BATCH_POLL = 64


class OverloadStage(Stage):
    """The backpressure control loop; owns the overload checkpoint
    fragment.

    Runs first in the graph so admission decisions for the incoming
    batch reflect the pressure the *previous* batch left behind —
    exactly the one-poll-loop lag a real controller would have.
    """

    def __init__(self, controller):
        super().__init__(get_spec("overload"))
        self.controller = controller

    def process(self, ctx: StageContext) -> None:
        self.controller.update(ctx.now_ns)

    def state_dict(self) -> Dict:
        return {"overload": self.controller.state_dict()}

    def load_state(self, state: Dict) -> None:
        if "overload" in state:
            self.controller.load_state(state["overload"])

    def bind_telemetry(self, registry) -> None:
        from repro.stack.metrics import bind_overload_metrics

        bind_overload_metrics(self.controller, registry)


class NicStage(Stage):
    """Frame admission: offer the batch to the NIC as one burst."""

    def __init__(self, pipeline):
        super().__init__(get_spec("nic"))
        self.pipeline = pipeline

    def process(self, ctx: StageContext) -> None:
        ctx.reached("nic.rx")
        self.pipeline.offer_burst(ctx.batch)

    def drain(self, ctx: StageContext) -> List[str]:
        self.pipeline.quiesce()
        return ["quiesce"]


class WorkerStage(Stage):
    """The rx worker pool; owns the pipeline's checkpoint fragment."""

    def __init__(self, pipeline):
        super().__init__(get_spec("workers"))
        self.pipeline = pipeline

    def process(self, ctx: StageContext) -> None:
        ctx.reached("worker.poll")
        self.pipeline.drain()

    def drain(self, ctx: StageContext) -> List[str]:
        self.pipeline.drain()
        return ["drain-rings"]

    def state_dict(self) -> Dict:
        return {"pipeline": self.pipeline.state_dict()}

    def load_state(self, state: Dict) -> None:
        if "pipeline" in state:
            self.pipeline.load_state(state["pipeline"])


class MqStage(Stage):
    """The PUSH/PULL bus boundary between workers and analytics."""

    def __init__(self, service):
        super().__init__(get_spec("mq"))
        self.service = service

    def process(self, ctx: StageContext) -> None:
        ctx.reached("mq.publish")

    def drain(self, ctx: StageContext) -> List[str]:
        self.service.poll(max_messages=1 << 30)
        return ["flush-mq"]


class AnalyticsStage(Stage):
    """Enrichment + fan-out; owns the service's checkpoint fragment."""

    def __init__(self, service):
        super().__init__(get_spec("analytics"))
        self.service = service

    def process(self, ctx: StageContext) -> None:
        # Partial drain first, so analytics.ingest really is mid-queue.
        self.service.poll(max_messages=MID_BATCH_POLL)
        ctx.reached("analytics.ingest")
        self.service.poll(max_messages=1 << 30)

    def drain(self, ctx: StageContext) -> List[str]:
        ctx.reached("drain.mid")
        self.service.finish()
        return ["flush-analytics"]

    def state_dict(self) -> Dict:
        return {"service": self.service.state_dict()}

    def load_state(self, state: Dict) -> None:
        if "service" in state:
            self.service.load_state(state["service"])


class AnomalyStage(Stage):
    """Detector baselines; fed by observers, stateful for checkpoints."""

    def __init__(self, manager):
        super().__init__(get_spec("anomaly"))
        self.manager = manager

    def state_dict(self) -> Dict:
        return {"anomaly": self.manager.state_dict()}

    def load_state(self, state: Dict) -> None:
        if "anomaly" in state:
            self.manager.load_state(state["anomaly"])


class TopkStage(Stage):
    """Heavy-hitter sketch riding the enriched stream."""

    def __init__(self, sketch):
        super().__init__(get_spec("topk"))
        self.sketch = sketch

    def state_dict(self) -> Dict:
        return {"topk": self.sketch.state_dict()}

    def load_state(self, state: Dict) -> None:
        if "topk" in state:
            self.sketch.load_state(state["topk"])


class FrontendStage(Stage):
    """The enriched SUB feed: decode, count, fan out to observers."""

    def __init__(self, sub, observers=()):
        super().__init__(get_spec("frontend"))
        self.sub = sub
        self.observers = list(observers)
        self.received = 0
        self.degraded = 0

    def pump(self) -> int:
        """Drain every queued enriched message through the observers."""
        handled = 0
        for message in self.sub.recv_all():
            measurement = decode_enriched(message.payload[0])
            self.received += 1
            if measurement.degraded:
                self.degraded += 1
            for observe in self.observers:
                observe(measurement)
            handled += 1
        return handled

    def process(self, ctx: StageContext) -> None:
        self.pump()

    def drain(self, ctx: StageContext) -> List[str]:
        self.pump()
        return ["flush-frontend"]

    def state_dict(self) -> Dict:
        return {
            "frontend": {"received": self.received, "degraded": self.degraded}
        }

    def load_state(self, state: Dict) -> None:
        frontend = state.get("frontend")
        if frontend is not None:
            self.received = int(frontend["received"])
            self.degraded = int(frontend["degraded"])


class TelemetryStage(Stage):
    """Self-monitoring: tick per batch, flush on drain."""

    def __init__(self, telemetry):
        super().__init__(get_spec("telemetry"))
        self.telemetry = telemetry

    def process(self, ctx: StageContext) -> None:
        self.telemetry.tick(ctx.now_ns)

    def drain(self, ctx: StageContext) -> List[str]:
        self.telemetry.flush(ctx.now_ns)
        return ["flush-telemetry"]


class TsdbStage(Stage):
    """The WAL-backed store; owns the TSDB checkpoint fragments."""

    def __init__(self, tsdb, wal):
        super().__init__(get_spec("tsdb"))
        self.tsdb = tsdb
        self.wal = wal

    def drain(self, ctx: StageContext) -> List[str]:
        self.wal.sync()
        return ["sync-wal"]

    def state_dict(self) -> Dict:
        # The store's position in its log, not its contents: the log is
        # the store's durable image, so a checkpoint's cost does not
        # grow with the store.
        return {"tsdb_meta": self.tsdb.state_dict()}

    def load_state(self, state: Dict) -> None:
        if "tsdb_meta" in state:
            self.tsdb.load_state(state["tsdb_meta"])


class CheckpointStage(Stage):
    """Periodic checkpoints plus checkpoint-cadence retention.

    The checkpointer is bound by the builder *after* the stack exists
    (its capture callable is the stack's own ``capture_state``).
    """

    def __init__(self, tsdb, retention_ns: Optional[int]):
        super().__init__(get_spec("checkpoint"))
        self.tsdb = tsdb
        self.retention_ns = retention_ns
        self.checkpointer = None
        self.stack = None
        self.last_clean = None

    def process(self, ctx: StageContext) -> None:
        now_ns = ctx.now_ns
        if self.retention_ns is not None and self.checkpointer.due(now_ns):
            # Age the live store on the checkpoint cadence, so neither
            # the store nor the checkpoints grow past the window.
            self.tsdb.enforce_retention(now_ns)
        self.checkpointer.maybe_checkpoint(now_ns)

    def drain(self, ctx: StageContext) -> List[str]:
        self.last_clean = self.checkpointer.checkpoint(ctx.now_ns, clean=True)
        return ["clean-checkpoint"]

    def bind_telemetry(self, registry) -> None:
        from repro.stack.metrics import bind_durability_metrics

        bind_durability_metrics(self.stack, registry)
