"""Whole-system integration tests: the paper's Fig 2 deployment."""

import pytest

from repro.analytics.service import AnalyticsService
from repro.anomaly.manager import AnomalyManager
from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.frontend.dashboard import build_ruru_dashboard
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.geo.builder import GeoDbBuilder
from repro.mq.codec import decode_enriched
from repro.mq.socket import Context
from repro.tsdb.query import Query
from repro.traffic.scenarios import (
    AucklandLaScenario,
    FirewallGlitchInjector,
    SynFloodInjector,
)

NS_PER_S = 1_000_000_000


def _full_stack(generator, observers=None, num_queues=4):
    """Wire pipeline -> analytics -> (tsdb, frontend feed)."""
    context = Context()
    geo, asn = GeoDbBuilder(plan=generator.plan, country_accuracy=1.0).build()
    service = AnalyticsService(context, geo, asn)
    sub = service.subscribe_frontend()
    pipeline = RuruPipeline(
        config=PipelineConfig(num_queues=num_queues),
        sink=service.make_sink(),
        observers=observers,
    )
    return pipeline, service, sub


class TestFullDeployment:
    def test_measurements_flow_to_every_tier(self):
        generator = AucklandLaScenario(
            duration_ns=5 * NS_PER_S, mean_flows_per_s=30, seed=3, diurnal=False
        ).build()
        pipeline, service, sub = _full_stack(generator)
        stats = pipeline.run_packets(generator.packets())
        service.finish()

        assert stats.measurements > 50
        # TSDB tier.
        count = service.tsdb.query(Query("latency", "total_ms", "count")).scalar()
        assert count == stats.measurements
        # Frontend tier: every measurement streamed.
        messages = sub.recv_all()
        assert len(messages) == stats.measurements

        # Live map renders the feed at 30 fps.
        channel = WebSocketChannel()
        view = LiveMapView(channel=channel, fps=30)
        for message in messages:
            measurement = decode_enriched(message.payload[0])
            view.add_measurement(measurement, measurement.timestamp_ns)
            view.tick(measurement.timestamp_ns)
        view.flush_frame(6 * NS_PER_S)
        assert view.frames_sent >= 1
        frames = channel.client_recv_all_json()
        total_arcs = sum(len(frame["arcs"]) for frame in frames)
        assert total_arcs == stats.measurements

    def test_dashboard_reports_nz_us_latency(self):
        generator = AucklandLaScenario(
            duration_ns=5 * NS_PER_S, mean_flows_per_s=40, seed=4, diurnal=False
        ).build()
        pipeline, service, _ = _full_stack(generator)
        pipeline.run_packets(generator.packets())
        service.finish()

        dashboard = build_ruru_dashboard(interval_ns=5 * NS_PER_S)
        results = dashboard.render(service.tsdb)
        mean_panel = next(r for r in results if r.title.startswith("mean"))
        nz_us = mean_panel.groups.get(
            (("dst_country", "US"), ("src_country", "NZ"))
        )
        assert nz_us, "NZ->US traffic must appear on the dashboard"
        mean_ms = nz_us[-1][1]
        # Auckland-LA total RTT centres around 130-220 ms in the model.
        assert 100 < mean_ms < 400


class TestFirewallGlitchEndToEnd:
    def test_glitch_detected_through_full_stack(self):
        glitch = FirewallGlitchInjector(
            window_start_offset_ns=20 * NS_PER_S, window_ns=10 * NS_PER_S
        )
        generator = AucklandLaScenario(
            duration_ns=60 * NS_PER_S, mean_flows_per_s=30, seed=5, diurnal=False
        ).build(injectors=[glitch])
        manager = AnomalyManager()
        pipeline, service, _ = _full_stack(generator)
        service.filters.append(
            lambda m: (manager.observe_measurement(m), True)[1]
        )
        pipeline.run_packets(generator.packets())
        service.finish()

        assert glitch.affected_flows > 0
        events = manager.finish(now_ns=60 * NS_PER_S)
        spikes = [e for e in events if e.kind == "latency-spike"]
        assert spikes, "the 4000 ms firewall glitch must be detected"
        assert any(e.evidence.get("peak_ms", e.evidence.get("observed_ms", 0)) > 3000
                   for e in spikes)

    def test_glitch_visible_as_red_arcs(self):
        glitch = FirewallGlitchInjector(
            window_start_offset_ns=10 * NS_PER_S, window_ns=5 * NS_PER_S
        )
        generator = AucklandLaScenario(
            duration_ns=40 * NS_PER_S, mean_flows_per_s=30, seed=6, diurnal=False
        ).build(injectors=[glitch])
        pipeline, service, sub = _full_stack(generator)
        pipeline.run_packets(generator.packets())
        service.finish()

        view = LiveMapView(arc_ttl_s=100.0, max_arcs_per_frame=10_000)
        last = 0
        for message in sub.recv_all():
            measurement = decode_enriched(message.payload[0])
            view.add_measurement(measurement, measurement.timestamp_ns)
            last = max(last, measurement.timestamp_ns)
        view.flush_frame(last)
        histogram = view.color_histogram()
        assert histogram["red"] > 0, "glitched flows must render red"
        assert histogram["green"] > histogram["red"], (
            "red lines should stand out against a mostly-green map"
        )


class TestSynFloodEndToEnd:
    def test_flood_detected_via_pipeline_observer(self):
        flood = SynFloodInjector(
            flood_start_ns=5 * NS_PER_S, flood_duration_ns=5 * NS_PER_S,
            rate_per_s=2000,
        )
        generator = AucklandLaScenario(
            duration_ns=15 * NS_PER_S, mean_flows_per_s=20, seed=7, diurnal=False
        ).build(injectors=[flood])
        manager = AnomalyManager()
        pipeline, service, _ = _full_stack(
            generator, observers=[manager.observe_burst]
        )
        pipeline.run_packets(generator.packets())
        service.finish()

        events = manager.finish(now_ns=15 * NS_PER_S)
        floods = [e for e in events if e.kind == "syn-flood"]
        assert len(floods) == 1
        assert floods[0].evidence["syn_rate"] > 1000

    def test_flood_does_not_break_measurement(self):
        """Flow-table eviction must bound memory while real flows
        keep being measured through the flood."""
        flood = SynFloodInjector(
            flood_start_ns=0, flood_duration_ns=10 * NS_PER_S, rate_per_s=3000
        )
        generator = AucklandLaScenario(
            duration_ns=10 * NS_PER_S, mean_flows_per_s=20, seed=8, diurnal=False
        ).build(injectors=[flood], keep_specs=True)
        config = PipelineConfig(num_queues=2, flow_table_size=1024)
        pipeline = RuruPipeline(config=config)
        stats = pipeline.run_packets(generator.packets())

        real_flows = [
            s for s in generator.specs
            if s.completes and not s.rst_after_synack
        ]
        # Under eviction pressure some measurements may be lost, but
        # the vast majority must survive.
        assert stats.measurements > 0.9 * len(real_flows)
        for table_size in pipeline.flow_table_occupancy():
            assert table_size <= 1024
