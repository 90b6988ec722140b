"""RuruStack.run(): the one feed loop and the report it drains to."""

from repro.faults import chaos_ok, render_chaos
from repro.scenarios.runner import Episode
from repro.stack import RuruStack, build_live_stack, build_measure_stack
from repro.traffic import GeneratorConfig, TrafficGenerator
from repro.traffic.endpoints import EndpointPopulation
from tests.conftest import cli_spec

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000


def _generator(duration_s=3.0, rate=40.0, seed=5, **knobs):
    return TrafficGenerator(
        config=GeneratorConfig(
            duration_ns=int(duration_s * NS_PER_S),
            mean_flows_per_s=rate,
            seed=seed,
            **knobs,
        ),
        population=EndpointPopulation(),
    )


def _walks(stack):
    """Record the size of every batch the stack walks its graph with."""
    sizes = []
    process_batch = stack.process_batch

    def spy(batch):
        sizes.append(len(batch))
        process_batch(batch)

    stack.process_batch = spy
    return sizes


class TestNothingWaitsAtTheFrontDoor:
    def test_run_outlasts_the_pull_high_water_mark(self):
        """More completing handshakes than the PULL socket's 10,000
        message HWM: analytics polls while packets still arrive, so
        nothing queues up to be dropped at the end of the capture."""
        generator = _generator(
            duration_s=10.0, rate=1100.0, max_data_exchanges=0
        )
        stack = build_live_stack(generator=generator, frontend_hwm=10_000)
        report = stack.run()
        measured = report.stats.measurements
        assert measured > stack.service.pull.hwm
        assert stack.service.enriched_count == measured
        assert stack.service.pull.dropped == 0
        assert stack.frontend.dropped == 0
        assert stack.frontend_received == measured
        assert report.ok and report.ledger.ingested == measured


class TestFeedLoop:
    def test_batches_are_cut_by_count(self):
        packets = _generator().packet_list()
        stack = build_measure_stack(queues=2)
        sizes = _walks(stack)
        stack.run(packets)
        feed_batch = stack.pipeline.feed_batch
        full, tail = divmod(len(packets), feed_batch)
        assert sizes == [feed_batch] * full + ([tail] if tail else [])

    def test_window_cuts_batches_by_virtual_time(self):
        packets = _generator().packet_list()
        stack = build_measure_stack(queues=2)
        sizes = _walks(stack)
        report = stack.run(packets, window_ns=100 * NS_PER_MS)
        origin = packets[0].timestamp_ns
        windows = {
            (packet.timestamp_ns - origin) // (100 * NS_PER_MS)
            for packet in packets
        }
        assert len(sizes) == len(windows)
        assert sum(sizes) == len(packets) == report.stats.packets_offered

    def test_shutdown_flag_skips_the_trailing_batch(self):
        packets = _generator().packet_list()
        stack = build_measure_stack(queues=2)
        feed_batch = stack.pipeline.feed_batch
        assert len(packets) > feed_batch and len(packets) % feed_batch
        polls = {"n": 0}

        def raised_after_the_last_full_batch():
            polls["n"] += 1
            return polls["n"] >= len(packets) // feed_batch

        report = stack.run(
            packets, shutdown_flag=raised_after_the_last_full_batch
        )
        assert report.stats.packets_offered == (
            len(packets) // feed_batch * feed_batch
        )
        assert report.stats.packets_processed == report.stats.packets_queued
        assert report.stages == ["quiesce", "drain-rings"]

    def test_default_stream_is_the_stacks_own_scenario(self):
        generator = _generator()
        stack = build_live_stack(generator=generator, queues=2)
        report = stack.run()
        assert report.stats.packets_offered == len(generator.packet_list())


class TestDrainReportForEveryPreset:
    def test_measure_has_no_ledger_and_is_ok(self):
        report = build_measure_stack(queues=2).run(_generator().packets())
        assert report.ledger is None
        assert report.final_checkpoint is None
        assert report.ok
        assert "conservation" not in report.render()

    def test_live_carries_the_conservation_ledger(self):
        stack = build_live_stack(generator=_generator(), frontend_hwm=10_000)
        report = stack.run()
        assert report.ledger.ok
        assert report.ledger.ingested == report.stats.measurements
        assert report.stages[-1] == "flush-frontend"
        assert report.ok


class TestChaosNeverRaises:
    def test_a_failing_stage_lands_in_the_report(self, monkeypatch):
        def explode(self, batch):
            raise RuntimeError("stage blew up")

        monkeypatch.setattr(RuruStack, "process_batch", explode)
        episode = Episode(
            cli_spec("chaos", "--profile", "clean", "--seed", 1, "--duration", 1, "--rate", 20)
        ).run()
        assert repr(episode.error) == "RuntimeError('stage blew up')"
        assert episode.report is None
        assert not chaos_ok(episode)
        # The books are the stack's as the error left it.
        assert episode.counts["scenario.packets_offered"] == 0
        assert "UNHANDLED EXCEPTIONS:\n  RuntimeError('stage blew up')" in render_chaos(episode)
