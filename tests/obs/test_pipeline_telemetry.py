"""End-to-end telemetry: the built stack reports through one registry,
which renders the run's books."""

from repro.obs import Telemetry
from repro.stack import StackBuilder
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.query import Query

NS_PER_S = 1_000_000_000


def run_instrumented(packets, export_interval_ns=NS_PER_S):
    telemetry = Telemetry()
    tsdb = TimeSeriesDatabase()
    telemetry.export_to(tsdb, interval_ns=export_interval_ns)
    stack = StackBuilder().queues(4).telemetry(telemetry).build()
    stats = stack.run(packets).stats
    return telemetry, stack.pipeline, stats, tsdb


class TestRegistryIsSourceOfTruth:
    def test_counters_match_pipeline_stats(self, small_workload):
        _, packets = small_workload
        telemetry, pipeline, stats, _ = run_instrumented(packets)
        snapshot = telemetry.registry.snapshot()

        def value(name):
            return snapshot[name]["samples"][0]["value"]

        assert value("ruru_packets_offered_total") == stats.packets_offered
        assert value("ruru_packets_queued_total") == stats.packets_queued
        assert value("ruru_nic_drops_total") == stats.nic_drops
        assert value("ruru_measurements_total") == stats.measurements
        assert value("ruru_nic_rx_packets_total") == pipeline.nic.stats.ipackets

    def test_tracker_events_cover_every_stats_field(self, small_workload):
        _, packets = small_workload
        telemetry, pipeline, stats, _ = run_instrumented(packets)
        family = telemetry.registry.family("ruru_tracker_events_total")
        telemetry.registry.collect()
        by_event = {
            labels[0]: child.value for labels, child in family.samples()
        }
        for field_name in stats.tracker.__dataclass_fields__:
            assert by_event[field_name] == getattr(stats.tracker, field_name)

    def test_per_queue_worker_counters(self, small_workload):
        _, packets = small_workload
        telemetry, pipeline, stats, _ = run_instrumented(packets)
        telemetry.registry.collect()
        family = telemetry.registry.family("ruru_worker_packets_processed_total")
        total = sum(child.value for _, child in family.samples())
        assert total == stats.packets_processed == stats.packets_queued

    def test_exposition_has_at_least_fifteen_series(self, small_workload):
        _, packets = small_workload
        telemetry, _, _, _ = run_instrumented(packets)
        text = telemetry.registry.exposition()
        sample_lines = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert len(sample_lines) >= 15
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert len(type_lines) >= 15


class TestSelfMonitoringExport:
    def test_snapshots_written_on_interval(self, small_workload):
        # The 5 s workload at a 1 s interval gives multiple snapshots.
        _, packets = small_workload
        telemetry, _, _, tsdb = run_instrumented(packets)
        assert telemetry.exporter.exports >= 3
        result = tsdb.query(Query("ruru_packets_offered_total", "value", "last"))
        assert result.scalar() > 0

    def test_interval_configurable(self, small_workload):
        _, packets = small_workload
        coarse, _, _, _ = run_instrumented(
            packets, export_interval_ns=100 * NS_PER_S
        )
        fine, _, _, _ = run_instrumented(packets, export_interval_ns=NS_PER_S)
        assert coarse.exporter.exports < fine.exporter.exports


class TestAnalyticsTelemetry:
    def test_full_deployment_shares_one_registry(self, small_workload):
        generator, packets = small_workload
        telemetry = Telemetry()
        stack = (
            StackBuilder().generator(generator).queues(4).telemetry(telemetry)
            .analytics().build()
        )
        telemetry.export_to(stack.tsdb)
        # Use the fixture's materialized list: calling packets() again
        # would grow the session-scoped generator's spec history.
        stats = stack.run(packets).stats

        snapshot = telemetry.registry.snapshot()

        def value(name):
            return snapshot[name]["samples"][0]["value"]

        assert value("ruru_mq_push_sent_total") == stats.measurements
        assert value("ruru_analytics_records_in_total") == stats.measurements
        assert value("ruru_analytics_enriched_total") == stack.service.enriched_count
        assert value("ruru_tsdb_points") == stack.tsdb.total_points()
