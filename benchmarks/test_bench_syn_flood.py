"""E5: real-time SYN-flood and connection-surge identification.

"Other types of anomalies (e.g., unusual number of TCP connections
between two locations or SYN floods) can also be identified in
real-time with simple Ruru modules." The bench injects both over
background traffic and reports detection latency, precision (no
events on clean traffic), and the detectors' per-packet cost.
"""

import pytest

from repro.analytics.service import AnalyticsService
from repro.anomaly.conn_count import ConnectionCountDetector
from repro.anomaly.syn_flood import SynFloodDetector
from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.geo.builder import GeoDbBuilder
from repro.mq.socket import Context
from repro.traffic.scenarios import (
    AucklandLaScenario,
    ConnectionSurgeInjector,
    SynFloodInjector,
)

NS_PER_S = 1_000_000_000

FLOOD_START = 60 * NS_PER_S
SURGE_START = 120 * NS_PER_S


@pytest.fixture(scope="module")
def attack_run():
    flood = SynFloodInjector(
        flood_start_ns=FLOOD_START, flood_duration_ns=10 * NS_PER_S,
        rate_per_s=2000,
    )
    surge = ConnectionSurgeInjector(
        src_city="Wellington", dst_city="Los Angeles",
        surge_start_ns=SURGE_START, surge_duration_ns=40 * NS_PER_S,
        rate_per_s=30,
    )
    generator = AucklandLaScenario(
        duration_ns=180 * NS_PER_S, mean_flows_per_s=25, seed=77, diurnal=False
    ).build(injectors=[flood, surge])

    context = Context()
    geo, asn = GeoDbBuilder(plan=generator.plan).build()
    service = AnalyticsService(context, geo, asn)
    flood_detector = SynFloodDetector(min_syn_rate=500)
    surge_detector = ConnectionCountDetector(
        window_ns=10 * NS_PER_S, min_count=100, warmup=4
    )
    service.filters.append(lambda m: (surge_detector.observe(m), True)[1])
    pipeline = RuruPipeline(
        config=PipelineConfig(num_queues=4),
        sink=service.make_sink(),
        observers=[flood_detector.on_burst],
    )
    stats = pipeline.run_packets(generator.packets())
    service.finish()
    flood_detector.finish(now_ns=180 * NS_PER_S)
    surge_detector.finish(now_ns=180 * NS_PER_S)
    return stats, flood_detector, surge_detector


class TestFloodDetection:
    def test_flood_detected_quickly(self, attack_run):
        _, flood_detector, _ = attack_run
        events = [e for e in flood_detector.events if e.kind == "syn-flood"]
        assert len(events) == 1
        latency_s = (events[0].start_ns - FLOOD_START) / NS_PER_S
        print(f"\nE5: flood flagged {latency_s:.1f}s after onset, "
              f"{events[0].description}")
        assert latency_s < 3.0  # "real-time": within a couple of windows
        assert events[0].evidence["syn_rate"] > 1000

    def test_surge_detected(self, attack_run):
        _, _, surge_detector = attack_run
        events = surge_detector.events
        assert events, "connection surge must be flagged"
        assert any("Wellington" in e.subject for e in events)
        first = min(events, key=lambda e: e.start_ns)
        latency_s = (first.start_ns - SURGE_START) / NS_PER_S
        print(f"\nE5: surge flagged {latency_s:.0f}s after onset "
              f"({first.description})")

    def test_no_false_positives_on_clean_traffic(self):
        generator = AucklandLaScenario(
            duration_ns=120 * NS_PER_S, mean_flows_per_s=25, seed=78,
            diurnal=False,
        ).build()
        context = Context()
        geo, asn = GeoDbBuilder(plan=generator.plan).build()
        service = AnalyticsService(context, geo, asn)
        flood_detector = SynFloodDetector(min_syn_rate=500)
        surge_detector = ConnectionCountDetector(
            window_ns=10 * NS_PER_S, min_count=100, warmup=4
        )
        service.filters.append(lambda m: (surge_detector.observe(m), True)[1])
        pipeline = RuruPipeline(
            config=PipelineConfig(num_queues=4), sink=service.make_sink(),
            observers=[flood_detector.on_burst],
        )
        pipeline.run_packets(generator.packets())
        service.finish()
        assert flood_detector.finish(now_ns=120 * NS_PER_S) == []
        assert surge_detector.finish(now_ns=120 * NS_PER_S) == []
        print("\nE5: clean run produced zero events (no false positives)")

    def test_bench_flood_detector_cost(self, benchmark, parsed_10s):
        def run():
            detector = SynFloodDetector()
            detector.on_burst(parsed_10s)
            return detector

        detector = benchmark(run)
        rate = len(parsed_10s) / benchmark.stats["mean"]
        print(f"\nE5: flood detector {rate:,.0f} packets/s as an observer")
