"""Scale soak: a larger run with noise and tap impairments together.

Not a micro test — one realistic minute of a busy tap (background TCP
+ non-TCP noise + capture impairments + injected anomalies) through
the live preset with the map and the detectors attached, asserting the global invariants that
must hold at any scale.
"""

import pytest

from repro.stack import build_live_stack
from repro.traffic.noise import NoiseGenerator, merge_streams
from repro.traffic.scenarios import (
    AucklandLaScenario,
    FirewallGlitchInjector,
    SynFloodInjector,
)
from repro.traffic.tap import TapImpairments
from repro.tsdb.query import Query
from tests.conftest import attach_live_map

NS_PER_S = 1_000_000_000
DURATION_S = 60


@pytest.fixture(scope="module")
def soak_report():
    glitch = FirewallGlitchInjector(
        window_start_offset_ns=20 * NS_PER_S, window_ns=10 * NS_PER_S
    )
    flood = SynFloodInjector(
        flood_start_ns=40 * NS_PER_S, flood_duration_ns=5 * NS_PER_S,
        rate_per_s=1500,
    )
    generator = AucklandLaScenario(
        duration_ns=DURATION_S * NS_PER_S, mean_flows_per_s=80,
        seed=101, diurnal=False,
    ).build(injectors=[glitch, flood], keep_specs=True)
    noise = NoiseGenerator(
        plan=generator.plan, duration_ns=DURATION_S * NS_PER_S,
        udp_rate_per_s=60, icmp_rate_per_s=6, seed=102,
    )
    impairments = TapImpairments(
        loss_rate=0.01, duplicate_rate=0.02, reorder_rate=0.05, seed=103
    )
    stream = impairments.apply(
        merge_streams(generator.packets(), noise.packets())
    )
    stack = build_live_stack(
        generator=generator, frontend_hwm=10_000, anomaly=True
    )
    map_view = attach_live_map(stack)
    stats = stack.run(stream).stats
    return generator, stack, map_view, stats


class TestSoak:
    def test_scale(self, soak_report):
        generator, _, _, stats = soak_report
        assert stats.packets_offered > 30_000
        assert generator.flows_generated > 4_000  # incl. flood flows

    def test_measurement_coverage_under_everything(self, soak_report):
        generator, _, _, stats = soak_report
        completing = sum(
            1 for s in generator.specs
            if s.completes and not s.rst_after_synack
        )
        # 1% loss costs ~3% of handshakes; everything else is neutral.
        assert stats.measurements > 0.9 * completing
        assert stats.measurements <= completing

    def test_all_tiers_consistent(self, soak_report):
        _, stack, map_view, stats = soak_report
        tsdb_count = stack.tsdb.query(
            Query("latency", "total_ms", "count")
        ).scalar()
        assert tsdb_count == stats.measurements
        assert map_view.arcs_in == stats.measurements
        status = stack.status()
        assert status["analytics"]["input_queue_depth"] == 0
        assert status["frontend"]["received"] == stats.measurements
        assert status["frontend"]["queue_depth"] == 0

    def test_both_anomalies_found(self, soak_report):
        _, stack, _, _ = soak_report
        kinds = {
            event.kind for event in stack.anomaly.finish(now_ns=stack.now_ns)
        }
        assert "latency-spike" in kinds
        assert "syn-flood" in kinds

    def test_noise_accounted(self, soak_report):
        _, _, _, stats = soak_report
        reasons = stats.parse_error_reasons
        assert reasons.get("not-tcp", 0) > 1000
        assert reasons.get("not-ip", 0) > 50

    def test_memory_bounded(self, soak_report):
        _, stack, _, _ = soak_report
        # Flow tables hold only expirable residue, not the whole run.
        for occupancy in stack.status()["pipeline"]["flow_table_occupancy"]:
            assert occupancy < 10_000
