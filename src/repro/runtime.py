"""The deployed system as one handle: live stack + map + detectors.

The real deployment runs everything *concurrently*: DPDK workers poll
their queues while the analytics threads drain ZeroMQ and the frontend
streams frames. :meth:`repro.stack.RuruStack.run` reproduces that
shape — packets are fed in bursts and every tier advances on every
burst, so queue depths and HWM drops behave as they would live — and
this module hangs the live map on the stack's frontend stage.

Typical use::

    runtime = RuruRuntime.build(generator.plan)
    report = runtime.run(generator.packets())
    report.tsdb.query(...)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.core.config import PipelineConfig
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.geo.asn import AsnDatabase
from repro.geo.builder import SyntheticGeoPlan
from repro.geo.database import GeoDatabase
from repro.net.packet import Packet
from repro.stack import build_enrichment_dbs, build_live_stack
from repro.tsdb.database import TimeSeriesDatabase


@dataclass
class RuntimeReport:
    """Everything a run produced, one handle per tier."""

    pipeline_stats: object
    tsdb: TimeSeriesDatabase
    map_view: LiveMapView
    channel: WebSocketChannel
    anomalies: List = field(default_factory=list)
    frontend_dropped: int = 0

    @property
    def measurements(self) -> int:
        return self.pipeline_stats.measurements


class RuruRuntime:
    """The ``live`` stack preset with the live map attached.

    Args:
        geo / asn: enrichment databases.
        config: pipeline tunables.
        with_anomaly_detection: attach the three detectors.
        analytics_workers: enrichment worker pool size.
        map_fps: live-map frame rate.
    """

    def __init__(
        self,
        geo: GeoDatabase,
        asn: AsnDatabase,
        config: Optional[PipelineConfig] = None,
        with_anomaly_detection: bool = True,
        analytics_workers: int = 4,
        map_fps: int = 30,
    ):
        self.config = config or PipelineConfig()
        self.stack = build_live_stack(
            geo_asn=(geo, asn),
            config=self.config,
            anomaly=with_anomaly_detection,
            analytics_workers=analytics_workers,
            frontend_hwm=10_000,
        )
        self.service = self.stack.service
        self.manager = self.stack.anomaly
        self.pipeline = self.stack.pipeline
        self.channel = WebSocketChannel(name="live-map")
        self.map_view = LiveMapView(channel=self.channel, fps=map_fps)
        self.stack.graph.get("frontend").observers.append(
            self.map_view.observe
        )

    @classmethod
    def build(
        cls,
        plan: Optional[SyntheticGeoPlan] = None,
        country_accuracy: float = 0.98,
        **kwargs,
    ) -> "RuruRuntime":
        """Construct with synthetic databases over *plan*."""
        geo, asn = build_enrichment_dbs(
            plan=plan, country_accuracy=country_accuracy
        )
        return cls(geo, asn, **kwargs)

    def run(self, packets: Iterable[Packet]) -> RuntimeReport:
        """Feed the stream along the stage graph; returns the report."""
        drained = self.stack.run(packets)
        last_ns = self.map_view.finish().timestamp_ns

        anomalies = []
        if self.manager is not None:
            anomalies = self.manager.finish(now_ns=last_ns)
        return RuntimeReport(
            pipeline_stats=drained.stats,
            tsdb=self.service.tsdb,
            map_view=self.map_view,
            channel=self.channel,
            anomalies=anomalies,
            frontend_dropped=self.stack.frontend.dropped,
        )

    def status(self) -> dict:
        """A JSON-able operations snapshot of every tier.

        The shape an ops endpoint (or the demo's status header) would
        expose: measurement counters, queue pressure, storage size,
        frontend pacing.
        """
        summary = self.pipeline.stats_snapshot().summary()
        return {
            "pipeline": {
                **summary,
                "queue_balance": self.pipeline.queue_balance(),
                "flow_table_occupancy": self.pipeline.flow_table_occupancy(),
            },
            "analytics": {
                "records_in": self.service.records_in,
                "enriched": self.service.enriched_count,
                "filtered_out": self.service.filtered_out,
                "input_queue_depth": len(self.service.pull),
            },
            "tsdb": {
                "points": self.service.tsdb.total_points(),
                "series": {
                    name: count
                    for name, count in self.service.tsdb.cardinality().items()
                },
            },
            "frontend": {
                "frames_sent": self.map_view.frames_sent,
                "active_arcs": self.map_view.active_arc_count,
                "arcs_dropped": self.map_view.arcs_dropped,
                "feed_bytes": self.channel.bytes_to_client,
                "colors": self.map_view.color_histogram(),
            },
        }
