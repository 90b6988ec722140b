"""The live preset with the map attached: every tier, one driver."""

from repro.core.config import PipelineConfig
from repro.stack import build_enrichment_dbs, build_live_stack
from repro.traffic.scenarios import (
    AucklandLaScenario,
    FirewallGlitchInjector,
    SynFloodInjector,
)
from tests.conftest import attach_live_map

NS_PER_S = 1_000_000_000


def _generator(duration_s=5, rate=30, seed=19, injectors=None):
    return AucklandLaScenario(
        duration_ns=duration_s * NS_PER_S, mean_flows_per_s=rate,
        seed=seed, diurnal=False,
    ).build(injectors=injectors, keep_specs=True)


class TestRuntime:
    def test_all_tiers_progress_together(self):
        generator = _generator()
        stack = build_live_stack(
            generator=generator,
            geo_asn=build_enrichment_dbs(generator.plan, country_accuracy=1.0),
            frontend_hwm=10_000,
            anomaly=True,
        )
        map_view = attach_live_map(stack)
        measurements = stack.run().stats.measurements

        completing = [
            s for s in generator.specs
            if s.completes and not s.rst_after_synack
        ]
        assert measurements == len(completing)
        # Every measurement reached the TSDB...
        from repro.tsdb.query import Query

        count = stack.tsdb.query(Query("latency", "total_ms", "count")).scalar()
        assert count == measurements
        # ...and was drawn on the map.
        assert map_view.arcs_in == measurements
        assert stack.frontend.dropped == 0

    def test_interleaving_bounds_queue_depth(self):
        """Because analytics runs while rx still has work, the PULL
        queue never accumulates the whole run."""
        generator = _generator(duration_s=5, rate=60)
        stack = build_live_stack(generator=generator, frontend_hwm=10_000)
        report = stack.run()
        # After the run the input queue is empty, and its HWM was never
        # threatened: no batch can complete more handshakes than it
        # has frames, so the queue never held more than one batch's
        # worth of a run that measured far more.
        pull = stack.service.pull
        assert len(pull) == 0
        assert pull.dropped == 0
        assert pull.take_peak() <= stack.pipeline.feed_batch
        assert report.stats.measurements > stack.pipeline.feed_batch

    def test_frames_paced(self):
        generator = _generator(duration_s=4, rate=50)
        stack = build_live_stack(generator=generator, frontend_hwm=10_000)
        map_view = attach_live_map(stack, fps=30)
        stack.run()
        map_view.finish()
        # At most ~30 frames per virtual second (+ the final flush).
        assert 0 < map_view.frames_sent <= 4 * 31 + 1

    def test_anomalies_detected_live(self):
        glitch = FirewallGlitchInjector(
            window_start_offset_ns=30 * NS_PER_S, window_ns=10 * NS_PER_S
        )
        flood = SynFloodInjector(
            flood_start_ns=50 * NS_PER_S, flood_duration_ns=5 * NS_PER_S,
            rate_per_s=2000,
        )
        generator = _generator(duration_s=60, rate=30, injectors=[glitch, flood])
        stack = build_live_stack(generator=generator, anomaly=True)
        stack.run()
        kinds = {
            event.kind for event in stack.anomaly.finish(now_ns=stack.now_ns)
        }
        assert "latency-spike" in kinds
        assert "syn-flood" in kinds

    def test_detection_disabled(self):
        generator = _generator(duration_s=2)
        stack = build_live_stack(generator=generator, frontend_hwm=10_000)
        stack.run()
        assert stack.anomaly is None
        assert "anomaly" not in stack.graph.names()

    def test_custom_config(self):
        generator = _generator(duration_s=2)
        stack = build_live_stack(
            generator=generator, config=PipelineConfig(num_queues=2)
        )
        report = stack.run()
        assert len(stack.pipeline.workers) == 2
        assert report.stats.measurements > 0
