"""RuruRuntime tests: the live stack with the map attached."""

from repro.core.config import PipelineConfig
from repro.runtime import RuruRuntime
from repro.stack import build_live_stack
from repro.traffic.scenarios import (
    AucklandLaScenario,
    FirewallGlitchInjector,
    SynFloodInjector,
)

NS_PER_S = 1_000_000_000


def _generator(duration_s=5, rate=30, seed=19, injectors=None):
    return AucklandLaScenario(
        duration_ns=duration_s * NS_PER_S, mean_flows_per_s=rate,
        seed=seed, diurnal=False,
    ).build(injectors=injectors, keep_specs=True)


class TestRuntime:
    def test_all_tiers_progress_together(self):
        generator = _generator()
        runtime = RuruRuntime.build(generator.plan, country_accuracy=1.0)
        report = runtime.run(generator.packets())

        completing = [
            s for s in generator.specs
            if s.completes and not s.rst_after_synack
        ]
        assert report.measurements == len(completing)
        # Every measurement reached the TSDB...
        from repro.tsdb.query import Query

        count = report.tsdb.query(Query("latency", "total_ms", "count")).scalar()
        assert count == report.measurements
        # ...and was drawn on the map.
        total_arcs = report.map_view.arcs_in
        assert total_arcs == report.measurements
        assert report.frontend_dropped == 0

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
        runtime = RuruRuntime.build(generator.plan, map_fps=30)
        report = runtime.run(generator.packets())
        # At most ~30 frames per virtual second (+ the final flush).
        assert report.map_view.frames_sent <= 4 * 31 + 1

    def test_anomalies_detected_live(self):
        glitch = FirewallGlitchInjector(
            window_start_offset_ns=30 * NS_PER_S, window_ns=10 * NS_PER_S
        )
        flood = SynFloodInjector(
            flood_start_ns=50 * NS_PER_S, flood_duration_ns=5 * NS_PER_S,
            rate_per_s=2000,
        )
        generator = _generator(duration_s=60, rate=30, injectors=[glitch, flood])
        runtime = RuruRuntime.build(generator.plan)
        report = runtime.run(generator.packets())
        kinds = {event.kind for event in report.anomalies}
        assert "latency-spike" in kinds
        assert "syn-flood" in kinds

    def test_detection_disabled(self):
        generator = _generator(duration_s=2)
        runtime = RuruRuntime.build(
            generator.plan, with_anomaly_detection=False
        )
        report = runtime.run(generator.packets())
        assert report.anomalies == []

    def test_custom_config(self):
        generator = _generator(duration_s=2)
        runtime = RuruRuntime.build(
            generator.plan, config=PipelineConfig(num_queues=2)
        )
        report = runtime.run(generator.packets())
        assert len(runtime.pipeline.workers) == 2
        assert report.measurements > 0
