"""``repro.obs`` — the unified telemetry subsystem.

Three pieces, one handle:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms with labels; Prometheus text exposition and
  a JSON snapshot view. Existing hot-path counters stay plain ints and
  are bridged in by scrape-time collectors, so instrumentation cost on
  the packet path is effectively zero.
* :class:`~repro.obs.prof.StageProfiler` — the one timing point: the
  stage graph times every assembled stage's slice of each feed batch
  on the wall, cpu and virtual planes (the virtual plane is
  deterministic), published as ``ruru_stage_*`` series.
* :class:`~repro.obs.exporter.TelemetryExporter` — periodic registry
  snapshots written into the in-repo TSDB as self-monitoring series.

:class:`Telemetry` bundles the three and is what the stack builder,
the pipeline, the analytics service and the CLI pass around: construct
one, hand it to :class:`~repro.stack.StackBuilder`, and every stage's
counters and timings flow through it.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.exporter import DEFAULT_EXPORT_INTERVAL_NS, TelemetryExporter
from repro.obs.prof import DEFAULT_CALL_SAMPLE, StageProfile, StageProfiler
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "StageProfile",
    "StageProfiler",
    "Telemetry",
    "TelemetryExporter",
    "DEFAULT_CALL_SAMPLE",
    "DEFAULT_EXPORT_INTERVAL_NS",
]


class Telemetry:
    """Registry + stage timing + (optional) exporter, shared across stages."""

    def __init__(self):
        self.registry = MetricsRegistry()
        # Stage timing is always on — the stack builder binds this
        # profiler to the assembled graph. Call attribution (the
        # sys.setprofile hook) stays off until enable_profiler().
        self.profiler = StageProfiler(sample_every=0)
        self.profiler.bind_registry(self.registry)
        self.exporter: Optional[TelemetryExporter] = None

    def enable_profiler(
        self, sample_every: int = DEFAULT_CALL_SAMPLE
    ) -> StageProfiler:
        """Attribute calls on every *sample_every*-th feed batch (0
        turns attribution back off); returns the stage profiler."""
        if sample_every < 0:
            raise ValueError("sample_every cannot be negative")
        self.profiler.sample_every = sample_every
        return self.profiler

    def export_to(
        self, tsdb, interval_ns: int = DEFAULT_EXPORT_INTERVAL_NS
    ) -> TelemetryExporter:
        """Attach a periodic self-monitoring exporter writing to *tsdb*."""
        self.exporter = TelemetryExporter(self.registry, tsdb, interval_ns=interval_ns)
        return self.exporter

    def tick(self, now_ns: int) -> int:
        """Drive the exporter, if any; returns points written."""
        if self.exporter is None:
            return 0
        return self.exporter.maybe_export(now_ns)

    def flush(self, now_ns: int) -> int:
        """Force a final export (end of a run); returns points written."""
        if self.exporter is None:
            return 0
        return self.exporter.export(now_ns)
