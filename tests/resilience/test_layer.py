"""ResilienceLayer bundle + registry bridging tests."""

from repro.obs import Telemetry
from repro.resilience import ResilienceLayer
from repro.stack import StackBuilder


class TestResilienceLayer:
    def test_defaults_wired(self):
        layer = ResilienceLayer(seed=7)
        assert layer.enrich_breaker.name == "enrich"
        assert layer.tsdb_breaker.name == "tsdb"
        assert len(layer.breakers) == 2
        assert len(layer.retry_queue) == 0
        assert layer.dlq.total == 0

    def test_registry_exposes_required_families(self):
        telemetry = Telemetry()
        stack = StackBuilder().telemetry(telemetry).analytics().build()
        layer = stack.resilience
        layer.retries = 3
        layer.degraded_published = 2
        layer.dlq.push("mq.decode", "CodecError: x", b"\x00", 0)
        for t in range(3):
            layer.tsdb_breaker.record_failure(t)

        text = telemetry.registry.exposition()
        assert 'ruru_retry_total{stage="tsdb"} 3' in text
        assert 'ruru_breaker_state{breaker="tsdb"} 1' in text
        assert 'ruru_breaker_state{breaker="enrich"} 0' in text
        assert 'ruru_breaker_opened_total{breaker="tsdb"} 1' in text
        assert "ruru_dlq_depth 1" in text
        assert 'ruru_dlq_total{stage="mq.decode",reason="CodecError: x"} 1' in text
        assert "ruru_degraded_published_total 2" in text
        assert "ruru_retry_pending 0" in text
