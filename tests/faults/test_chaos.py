"""Chaos harness tests: survival, conservation, determinism, metrics.

These are the acceptance tests for the resilience layer: a full
pipeline + analytics stack runs under each fault profile and must (a)
raise no unhandled exception, (b) balance the count-conservation
ledger, and (c) replay to identical counts from the same seed.
"""

import pytest

from repro.faults import run_chaos
from tests.conftest import cli_spec

# Small-but-busy runs keep the suite fast while still firing every
# fault kind at the default profile rates.
RUN = ("--duration", 4, "--rate", 30)

REQUIRED_METRIC_FAMILIES = (
    "ruru_retry_total",
    "ruru_breaker_state",
    "ruru_dlq_depth",
    "ruru_supervisor_restarts_total",
)


@pytest.fixture(scope="module")
def lossy_report():
    report = run_chaos(cli_spec("chaos", "--profile", "lossy-mq", "--seed", 42, *RUN))
    return report.stack, report


class TestLossyMq:
    def test_survives_and_conserves(self, lossy_report):
        _, report = lossy_report
        assert report.unhandled == []
        assert report.ledger.ok
        report.ledger.check()

    def test_faults_actually_fired(self, lossy_report):
        _, report = lossy_report
        assert report.faults_injected.get(("mq", "drop"), 0) > 0
        assert report.faults_injected.get(("mq", "corrupt"), 0) > 0

    def test_mangled_payloads_deadlettered_not_crashed(self, lossy_report):
        _, report = lossy_report
        assert report.ledger.deadlettered > 0
        assert report.dlq_total == report.ledger.deadlettered
        assert all(
            stage == "mq.decode" for stage, _ in report.dlq_summary
        )

    def test_same_seed_identical_counts(self, lossy_report):
        _, report = lossy_report
        replay = run_chaos(cli_spec("chaos", "--profile", "lossy-mq", "--seed", 42, *RUN))
        assert replay.counts() == report.counts()

    def test_different_seed_different_faults(self, lossy_report):
        _, report = lossy_report
        other = run_chaos(cli_spec("chaos", "--profile", "lossy-mq", "--seed", 43, *RUN))
        assert other.ok
        assert other.counts() != report.counts()

    def test_required_metric_families_exposed(self, lossy_report):
        harness, _ = lossy_report
        text = harness.telemetry.registry.exposition()
        for family in REQUIRED_METRIC_FAMILIES:
            assert family in text, family

    def test_dlq_depth_metric_matches_report(self, lossy_report):
        harness, report = lossy_report
        text = harness.telemetry.registry.exposition()
        assert f"ruru_dlq_depth {report.dlq_depth}" in text

    def test_report_renders(self, lossy_report):
        _, report = lossy_report
        text = report.render()
        assert "verdict: OK" in text
        assert "conservation:" in text


class TestCleanControl:
    def test_no_faults_no_losses(self):
        report = run_chaos(cli_spec("chaos", "--profile", "clean", "--seed", 42, *RUN))
        assert report.ok
        assert report.faults_injected == {}
        assert report.dlq_total == 0
        assert report.degraded_published == 0
        assert report.ledger.processed == report.ledger.ingested
        assert report.measurement_loss_rate() == 0.0


class TestFlakyGeo:
    def test_degrades_instead_of_losing(self):
        report = run_chaos(cli_spec("chaos", "--profile", "flaky-geo", "--seed", 42, *RUN))
        assert report.ok
        # Enrichment faults never cost records: everything publishes,
        # some un-enriched with the degraded flag.
        assert report.ledger.processed == report.ledger.ingested
        assert report.degraded_published > 0
        assert report.breaker_opened["enrich"] > 0

    def test_degraded_flag_visible_downstream(self):
        report = run_chaos(cli_spec("chaos", "--profile", "flaky-geo", "--seed", 42, *RUN))
        assert report.frontend_degraded > 0
        assert report.frontend_degraded < report.frontend_received


class TestTsdbBrownout:
    def test_writes_retry_and_recover(self):
        report = run_chaos(cli_spec("chaos", "--profile", "tsdb-brownout", "--seed", 42, *RUN))
        assert report.ok
        assert report.retries > 0
        assert report.breaker_opened["tsdb"] > 0
        assert report.points_written > 0
        # Recovery time is measurable from the breaker transition log.
        assert report.breaker_recovery_ns["tsdb"]
        assert all(t > 0 for t in report.breaker_recovery_ns["tsdb"])


class TestCrashyWorkers:
    def test_crashes_supervised_without_record_loss(self):
        report = run_chaos(cli_spec("chaos", "--profile", "crashy-workers", "--seed", 42, *RUN))
        assert report.ok
        assert report.supervisor_restarts > 0
        # Crash-before-poll means accepted packets survive restarts:
        # the run measures exactly what the clean control run measures.
        clean = run_chaos(cli_spec("chaos", "--profile", "clean", "--seed", 42, *RUN))
        assert report.ledger.ingested == clean.ledger.ingested


class TestMonsoon:
    def test_everything_at_once_still_conserves(self):
        report = run_chaos(cli_spec("chaos", "--profile", "monsoon", "--seed", 42, *RUN))
        assert report.unhandled == []
        report.ledger.check()
        assert report.faults_injected  # plenty fired
