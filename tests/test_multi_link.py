"""Multi-link deployment: two taps, one analytics tier.

The paper notes the monitored link "is one of REANNZ's two
international commodity links out of NZ" — a full deployment taps
both. The ZeroMQ fabric makes this free: each link runs its own
pipeline, both PUSH into the same analytics service, and the TSDB /
frontend see the union. These tests assert that composition works
without any special-casing.
"""

import pytest

from repro.analytics.service import AnalyticsService
from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.geo.builder import GeoDbBuilder
from repro.mq.socket import Context
from repro.stack import build_live_stack
from repro.traffic.scenarios import AucklandLaScenario
from repro.tsdb.query import Query
from tests.conftest import attach_live_map

NS_PER_S = 1_000_000_000


class TestTwoLinks:
    def test_two_pipelines_one_service(self):
        # Two links with different traffic (different seeds/rates).
        link_a = AucklandLaScenario(
            duration_ns=4 * NS_PER_S, mean_flows_per_s=30, seed=31, diurnal=False
        ).build()
        link_b = AucklandLaScenario(
            duration_ns=4 * NS_PER_S, mean_flows_per_s=20, seed=32, diurnal=False
        ).build()

        context = Context()
        geo, asn = GeoDbBuilder(plan=link_a.plan).build()
        service = AnalyticsService(context, geo, asn)

        pipeline_a = RuruPipeline(
            config=PipelineConfig(num_queues=2), sink=service.make_sink()
        )
        pipeline_b = RuruPipeline(
            config=PipelineConfig(num_queues=2), sink=service.make_sink()
        )
        stats_a = pipeline_a.run_packets(link_a.packets())
        stats_b = pipeline_b.run_packets(link_b.packets())
        service.finish()

        total = service.tsdb.query(Query("latency", "total_ms", "count")).scalar()
        assert total == stats_a.measurements + stats_b.measurements
        assert stats_a.measurements > 0 and stats_b.measurements > 0

    def test_links_share_push_round_robin_workers(self):
        """Both links' records spread across the enrichment pool."""
        link = AucklandLaScenario(
            duration_ns=4 * NS_PER_S, mean_flows_per_s=40, seed=33, diurnal=False
        ).build()
        context = Context()
        geo, asn = GeoDbBuilder(plan=link.plan).build()
        service = AnalyticsService(context, geo, asn, num_workers=3)
        pipeline = RuruPipeline(sink=service.make_sink())
        pipeline.run_packets(link.packets())
        service.finish()
        counts = [worker.stats.enriched for worker in service.enrichers]
        assert min(counts) > 0


class TestRuntimeStatus:
    def test_status_snapshot_shape(self):
        generator = AucklandLaScenario(
            duration_ns=3 * NS_PER_S, mean_flows_per_s=30, seed=34, diurnal=False
        ).build()
        stack = build_live_stack(
            generator=generator, frontend_hwm=10_000, anomaly=True
        )
        map_view = attach_live_map(stack)
        measurements = stack.run().stats.measurements
        map_view.finish()
        status = stack.status()

        assert status["pipeline"]["measurements"] == measurements
        assert len(status["pipeline"]["queue_balance"]) == 4
        assert status["analytics"]["enriched"] == measurements
        assert status["analytics"]["input_queue_depth"] == 0
        assert status["tsdb"]["points"] > 0
        assert "latency" in status["tsdb"]["series"]
        # The map is the caller's observer: its figures are its own, and
        # agree with what the stack's frontend stage handed it.
        assert status["frontend"]["received"] == map_view.arcs_in
        assert map_view.frames_sent > 0
        assert set(map_view.color_histogram()) == {"green", "yellow", "red"}

    def test_status_is_json_serializable(self):
        import json

        generator = AucklandLaScenario(
            duration_ns=2 * NS_PER_S, mean_flows_per_s=20, seed=35, diurnal=False
        ).build()
        stack = build_live_stack(
            generator=generator, frontend_hwm=10_000, anomaly=True
        )
        stack.run()
        json.dumps(stack.status())
