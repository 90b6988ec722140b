"""Chaos harness tests: survival, conservation, determinism, metrics.

These are the acceptance tests for the resilience layer: a full
pipeline + analytics stack runs under each fault profile and must (a)
raise no unhandled exception, (b) balance the count-conservation
ledger, and (c) replay to identical books from the same seed.
"""

import pytest

from repro.faults import chaos_ok, render_chaos
from repro.resilience import Ledger
from repro.scenarios.runner import Episode
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


def chaos(profile, seed=42):
    """The drained episode ``ruru chaos --profile <profile>`` runs."""
    return Episode(cli_spec("chaos", "--profile", profile, "--seed", seed, *RUN)).run()


@pytest.fixture(scope="module")
def lossy():
    return chaos("lossy-mq")


class TestLossyMq:
    def test_survives_and_conserves(self, lossy):
        assert lossy.error is None
        ledger = Ledger.from_books(lossy.counts)
        assert ledger.ok
        ledger.check()

    def test_faults_actually_fired(self, lossy):
        assert lossy.counts.get("fault.mq.drop", 0) > 0
        assert lossy.counts.get("fault.mq.corrupt", 0) > 0

    def test_mangled_payloads_deadlettered_not_crashed(self, lossy):
        counts = lossy.counts
        assert counts["ledger.deadlettered"] > 0
        assert counts["resilience.dlq_total"] == counts["ledger.deadlettered"]
        assert all(
            stage == "mq.decode" for stage, _ in lossy.stack.resilience.dlq.summary()
        )

    def test_same_seed_identical_counts(self, lossy):
        assert chaos("lossy-mq").counts == lossy.counts

    def test_different_seed_different_faults(self, lossy):
        other = chaos("lossy-mq", seed=43)
        assert chaos_ok(other)
        assert other.counts != lossy.counts

    def test_required_metric_families_exposed(self, lossy):
        text = lossy.stack.telemetry.registry.exposition()
        for family in REQUIRED_METRIC_FAMILIES:
            assert family in text, family

    def test_dlq_depth_metric_matches_report(self, lossy):
        text = lossy.stack.telemetry.registry.exposition()
        assert f"ruru_dlq_depth {lossy.counts['resilience.dlq_depth']}" in text

    def test_report_renders(self, lossy):
        text = render_chaos(lossy)
        assert "verdict: OK" in text
        assert "conservation:" in text


class TestCleanControl:
    def test_no_faults_no_losses(self):
        episode = chaos("clean")
        counts = episode.counts
        assert chaos_ok(episode)
        assert counts["faults.injected_total"] == 0
        assert not [name for name in counts if name.startswith("fault.")]
        assert counts["resilience.dlq_total"] == 0
        assert counts["resilience.degraded_published"] == 0
        assert counts["ledger.processed"] == counts["ledger.ingested"]
        assert "measurement loss: 0.00%" in render_chaos(episode)


class TestFlakyGeo:
    def test_degrades_instead_of_losing(self):
        episode = chaos("flaky-geo")
        counts = episode.counts
        assert chaos_ok(episode)
        # Enrichment faults never cost records: everything publishes,
        # some un-enriched with the degraded flag.
        assert counts["ledger.processed"] == counts["ledger.ingested"]
        assert counts["resilience.degraded_published"] > 0
        assert counts["breaker.enrich.opened"] > 0

    def test_degraded_flag_visible_downstream(self):
        counts = chaos("flaky-geo").counts
        assert counts["frontend.degraded"] > 0
        assert counts["frontend.degraded"] < counts["frontend.received"]


class TestTsdbBrownout:
    def test_writes_retry_and_recover(self):
        episode = chaos("tsdb-brownout")
        counts = episode.counts
        assert chaos_ok(episode)
        assert counts["resilience.retries"] > 0
        assert counts["breaker.tsdb.opened"] > 0
        assert counts["resilience.points_written"] > 0
        # Recovery time is measurable from the breaker transition log.
        recoveries = episode.stack.resilience.tsdb_breaker.recovery_times_ns()
        assert recoveries
        assert all(t > 0 for t in recoveries)


class TestCrashyWorkers:
    def test_crashes_supervised_without_record_loss(self):
        episode = chaos("crashy-workers")
        assert chaos_ok(episode)
        assert episode.counts["supervisor.restarts"] > 0
        # Crash-before-poll means accepted packets survive restarts:
        # the run measures exactly what the clean control run measures.
        clean = chaos("clean")
        assert episode.counts["ledger.ingested"] == clean.counts["ledger.ingested"]


class TestMonsoon:
    def test_everything_at_once_still_conserves(self):
        episode = chaos("monsoon")
        assert episode.error is None
        Ledger.from_books(episode.counts).check()
        assert episode.counts["faults.injected_total"] > 0  # plenty fired
