"""Anomaly manager tests."""

import random

from repro.anomaly.manager import AnomalyManager
from repro.anomaly.events import Severity
from tests.anomaly.test_latency_spike import _measurement
from tests.anomaly.test_syn_flood import SYN, _packet

S = 1_000_000_000


class TestAnomalyManager:
    def test_latency_events_via_measurements(self):
        manager = AnomalyManager()
        rng = random.Random(1)
        for i in range(60):
            manager.observe_measurement(
                _measurement(i * S, 150 + rng.uniform(-10, 10))
            )
        for i in range(5):
            manager.observe_measurement(_measurement((60 + i) * S, 4200.0))
        events = manager.finish(now_ns=70 * S)
        assert manager.events_of_kind("latency-spike")
        assert any(e.kind == "latency-spike" for e in events)

    def test_flood_events_via_packets(self):
        manager = AnomalyManager()
        rng = random.Random(2)
        for second in range(3):
            for i in range(1200):
                t = second * S + i * (S // 1200)
                manager.observe_burst([_packet(SYN, t, rng=rng)])
        events = manager.finish(now_ns=5 * S)
        assert any(e.kind == "syn-flood" for e in events)

    def test_alert_sink_called(self):
        alerts = []
        manager = AnomalyManager(alert_sink=alerts.append)
        rng = random.Random(3)
        for i in range(60):
            manager.observe_measurement(
                _measurement(i * S, 150 + rng.uniform(-10, 10))
            )
        for i in range(5):
            manager.observe_measurement(_measurement((60 + i) * S, 4200.0))
        assert alerts
        assert manager.alerts_raised == len(alerts)

    def test_finish_sorts_by_severity(self):
        manager = AnomalyManager()
        rng = random.Random(4)
        # Produce both a flood (critical) and nothing else; order check
        # needs at least one event.
        for second in range(3):
            for i in range(1200):
                manager.observe_burst(
                    [_packet(SYN, second * S + i * (S // 1200), rng=rng)]
                )
        events = manager.finish(now_ns=5 * S)
        severities = [int(e.severity) for e in events]
        assert severities == sorted(severities, reverse=True)
        assert events[0].severity == Severity.CRITICAL

    def test_quiet_stream_no_events(self):
        manager = AnomalyManager()
        rng = random.Random(5)
        for i in range(200):
            manager.observe_measurement(
                _measurement(i * S, 150 + rng.uniform(-10, 10))
            )
        assert manager.finish(now_ns=201 * S) == []
        assert manager.alerts_raised == 0

    def test_events_of_kind_unknown(self):
        assert AnomalyManager().events_of_kind("nothing") == []
