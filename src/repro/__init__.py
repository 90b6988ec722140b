"""repro — a full reproduction of Ruru (SIGCOMM 2017 Posters & Demos).

Ruru is a passive, flow-level end-to-end latency measurement and
visualization pipeline: DPDK fast path → handshake latency engine →
ZeroMQ → geo/AS analytics → InfluxDB + WebSocket/WebGL frontends.
Every stage is reproduced in pure Python (see DESIGN.md for the
substitution table), plus the traffic generation, anomaly detection
and baselines needed to regenerate the paper's evaluation story.

Quick start::

    from repro import RuruPipeline, AucklandLaScenario

    generator = AucklandLaScenario(duration_ns=10**10).build()
    pipeline = RuruPipeline()
    stats = pipeline.run_packets(generator.packets())
    for record in pipeline.measurements[:5]:
        print(record)
"""

from repro.core import (
    HandshakeTracker,
    LatencyRecord,
    PipelineConfig,
    RuruPipeline,
)
from repro.traffic import AucklandLaScenario, GeneratorConfig, TrafficGenerator
from repro.analytics import AnalyticsService, EnrichedMeasurement, Enricher
from repro.geo import GeoDbBuilder, SyntheticGeoPlan
from repro.tsdb import Query, TimeSeriesDatabase
from repro.frontend import LiveMapView, build_ruru_dashboard
from repro.anomaly import AnomalyManager
from repro.mq import Context
from repro.stack import (
    RuruStack,
    StackBuilder,
    build_live_stack,
    build_measure_stack,
)

__version__ = "1.0.0"

__all__ = [
    "HandshakeTracker",
    "LatencyRecord",
    "PipelineConfig",
    "RuruPipeline",
    "AucklandLaScenario",
    "GeneratorConfig",
    "TrafficGenerator",
    "AnalyticsService",
    "EnrichedMeasurement",
    "Enricher",
    "GeoDbBuilder",
    "SyntheticGeoPlan",
    "Query",
    "TimeSeriesDatabase",
    "LiveMapView",
    "build_ruru_dashboard",
    "AnomalyManager",
    "Context",
    "RuruStack",
    "StackBuilder",
    "build_live_stack",
    "build_measure_stack",
    "__version__",
]
