"""End-to-end pipeline tests (Fig 2 wiring)."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.net.pcap import PcapWriter
from repro.net.pcapng import open_capture
from tests.conftest import make_handshake

MS = 1_000_000


class TestSingleFlow:
    def test_one_handshake_one_measurement(self):
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        stats = pipeline.run_packets(make_handshake(external_ns=120 * MS, internal_ns=8 * MS))
        assert stats.measurements == 1
        record = pipeline.measurements[0]
        assert record.external_ns == 120 * MS
        assert record.internal_ns == 8 * MS

    def test_clock_follows_packets(self):
        pipeline = RuruPipeline()
        pipeline.run_packets(make_handshake(syn_ns=5 * MS))
        assert pipeline.clock.now_ns >= 5 * MS

    def test_queue_share_names_the_queue_that_received(self):
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        assert pipeline.queue_balance() == []
        stats = pipeline.run_packets(make_handshake())
        ((queue_id, count),) = pipeline.nic.stats.q_ipackets.items()
        assert count == 3
        expected = [0.0] * 4
        expected[queue_id] = 1.0
        assert pipeline.queue_balance() == expected
        assert stats.queue_share == expected
        shares = {
            key: value
            for key, value in stats.summary().items()
            if key.startswith("queue_share.")
        }
        assert shares == {f"queue_share.q{q}": expected[q] for q in range(4)}
        # The one queue must not be queue 0 for the labels to matter.
        assert queue_id != 0


class TestWorkload:
    def test_synthetic_workload_measures_completed_flows(self, small_workload):
        generator, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        stats = pipeline.run_packets(packets)
        completing = [
            spec for spec in generator.specs
            if spec.completes and not spec.rst_after_synack
        ]
        assert stats.measurements == len(completing)
        assert stats.nic_drops == 0
        assert stats.parse_errors == 0

    def test_measurements_match_ground_truth(self, small_workload):
        generator, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=2))
        pipeline.run_packets(packets)
        # Index ground truth by (client, port) pair.
        truth = {
            (spec.client_ip, spec.client_port): spec
            for spec in generator.specs
        }
        checked = 0
        for record in pipeline.measurements:
            spec = truth.get((record.src_ip, record.src_port))
            if spec is None:
                continue
            assert abs(record.external_ns - spec.expected_external_ns()) <= MS
            assert abs(record.internal_ns - spec.expected_internal_ns()) <= MS
            checked += 1
        assert checked == len(pipeline.measurements)

    def test_queue_count_does_not_change_results(self, small_workload):
        _, packets = small_workload
        totals = []
        for queues in (1, 2, 8):
            pipeline = RuruPipeline(config=PipelineConfig(num_queues=queues))
            pipeline.run_packets(packets)
            totals.append(
                sorted(record.total_ns for record in pipeline.measurements)
            )
        assert totals[0] == totals[1] == totals[2]

    def test_queue_balance_spreads_load(self, small_workload):
        _, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        pipeline.run_packets(packets)
        balance = pipeline.queue_balance()
        assert len(balance) == 4
        assert all(share > 0.05 for share in balance)

    def test_flow_table_occupancy_reported(self, small_workload):
        _, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        pipeline.run_packets(packets)
        occupancy = pipeline.flow_table_occupancy()
        assert len(occupancy) == 4
        # Only never-completed handshakes stay resident.
        assert all(count < 50 for count in occupancy)


class TestStatsMerging:
    def test_run_packets_twice_does_not_double_count(self, small_workload):
        """Tracker counters are recomputed, not re-accumulated, per run."""
        _, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        first = dict(pipeline.run_packets(packets).summary())
        # The second run re-offers the same trace into live trackers:
        # totals must equal one fresh pass over 2x packets, never a
        # merge of already-merged tracker stats.
        pipeline.run_packets(packets)
        second = pipeline.stats.summary()
        assert second["packets_offered"] == 2 * first["packets_offered"]
        assert pipeline.stats.tracker.packets == sum(
            worker.stats.packets for worker in pipeline.workers
        )
        assert second["packets_processed"] == sum(
            worker.packets_processed for worker in pipeline.workers
        )

    def test_worker_counters_surface_in_pipeline_stats(self, small_workload):
        _, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        stats = pipeline.run_packets(packets)
        assert stats.packets_processed == stats.packets_queued
        assert stats.packets_sampled_out == 0
        assert stats.queue_share == pipeline.queue_balance()
        assert len(stats.queue_share) == 4

    def test_sampled_out_counted(self, small_workload):
        _, packets = small_workload
        pipeline = RuruPipeline(
            config=PipelineConfig(num_queues=2, flow_sample_modulus=4)
        )
        stats = pipeline.run_packets(packets)
        assert stats.packets_sampled_out > 0
        assert stats.summary()["packets_sampled_out"] == stats.packets_sampled_out

    def test_parse_error_reasons_bucketed_per_reason(self):
        from repro.net.packet import Packet

        pipeline = RuruPipeline(config=PipelineConfig(num_queues=1))
        good = make_handshake()
        # A frame with a bogus ethertype and a truncated IPv4 frame
        # exercise two distinct parse-drop reasons.
        bad_ethertype = Packet(
            data=good[0].data[:12] + b"\x86\x00" + good[0].data[14:],
            timestamp_ns=good[0].timestamp_ns,
        )
        truncated = Packet(data=good[0].data[:20], timestamp_ns=good[0].timestamp_ns)
        stats = pipeline.run_packets(good + [bad_ethertype, truncated])
        assert stats.parse_errors == 2
        assert len(stats.parse_error_reasons) == 2
        assert sum(stats.parse_error_reasons.values()) == 2
        summary = stats.summary()
        for reason, count in stats.parse_error_reasons.items():
            assert summary[f"parse_error.{reason}"] == count


class TestSink:
    def test_custom_sink_receives_stream(self, small_workload):
        _, packets = small_workload
        got = []
        pipeline = RuruPipeline(sink=got.append)
        stats = pipeline.run_packets(packets)
        assert len(got) == stats.measurements
        assert pipeline.measurements == []  # collected by the sink instead


class TestPcapReplay:
    def test_run_pcap(self, tmp_path, small_workload):
        _, packets = small_workload
        path = tmp_path / "trace.pcap"
        with PcapWriter(path) as writer:
            for packet in packets:
                writer.write(packet)
        with open_capture(path) as reader:
            stats = RuruPipeline().run_packets(reader)
        assert stats.measurements > 0
        assert stats.packets_offered == len(packets)


class TestValidation:
    def test_bad_feed_batch_rejected(self):
        with pytest.raises(ValueError):
            RuruPipeline(feed_batch=0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            RuruPipeline(config=PipelineConfig(num_queues=0))


class TestSupervisedWorkers:
    def test_crashing_workers_lose_nothing(self, small_workload):
        from repro.resilience import Supervisor

        _, packets = small_workload
        baseline = RuruPipeline(config=PipelineConfig(num_queues=2))
        baseline.run_packets(packets)

        crashes = {"count": 0}

        def crash_every_third(poll, role):
            calls = {"n": 0}

            def wrapped():
                calls["n"] += 1
                if calls["n"] % 3 == 0:
                    crashes["count"] += 1
                    raise RuntimeError(f"induced crash in {role}")
                return poll()

            return wrapped

        supervisor = Supervisor()
        pipeline = RuruPipeline(
            config=PipelineConfig(num_queues=2),
            supervisor=supervisor,
            poll_wrapper=crash_every_third,
        )
        pipeline.run_packets(packets)
        assert crashes["count"] > 0
        assert supervisor.total_restarts == crashes["count"]
        # Crash-before-poll + intact worker state: identical results.
        assert len(pipeline.measurements) == len(baseline.measurements)

    def test_unsupervised_crash_still_propagates(self, small_workload):
        _, packets = small_workload

        def crash_first(poll, role):
            def wrapped():
                raise RuntimeError("unsupervised crash")

            return wrapped

        pipeline = RuruPipeline(
            config=PipelineConfig(num_queues=2), poll_wrapper=crash_first
        )
        with pytest.raises(RuntimeError):
            pipeline.run_packets(packets)


    def test_idle_workers_with_frames_pending_is_a_stall(self, small_workload):
        """Rings non-empty, a whole round of polls did nothing, nobody
        was restarted: drain raises instead of spinning."""
        _, packets = small_workload
        pipeline = RuruPipeline(
            config=PipelineConfig(num_queues=2),
            poll_wrapper=lambda poll, role: lambda: 0,
        )
        with pytest.raises(RuntimeError, match="stalled"):
            pipeline.run_packets(packets)


class TestSnapshotSideEffects:
    """state_dict() must be a pure read — no folding into live stats."""

    def test_state_dict_does_not_mutate_observable_stats(self, small_workload):
        _, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        # Feed without run_packets: bare offers and drains.
        for packet in packets:
            pipeline.offer(packet)
        pipeline.drain()
        before = pipeline.stats.state_dict()
        snapshot = pipeline.state_dict()
        assert pipeline.stats.state_dict() == before
        # The snapshot itself still carries the folded worker counters.
        assert snapshot["stats"]["packets_processed"] == sum(
            worker.packets_processed for worker in pipeline.workers
        )
        assert snapshot["stats"]["tracker"]["packets"] == sum(
            worker.stats.packets for worker in pipeline.workers
        )

    def test_state_dict_is_idempotent(self, small_workload):
        _, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=2))
        pipeline.run_packets(packets)
        assert pipeline.state_dict() == pipeline.state_dict()

    def test_snapshot_between_runs_does_not_change_totals(self, small_workload):
        """Checkpointing mid-stream must not perturb later accounting."""
        _, packets = small_workload
        plain = RuruPipeline(config=PipelineConfig(num_queues=4))
        plain.run_packets(packets)
        plain.run_packets(packets)

        snapshotted = RuruPipeline(config=PipelineConfig(num_queues=4))
        snapshotted.run_packets(packets)
        snapshotted.state_dict()
        snapshotted.run_packets(packets)
        assert snapshotted.stats.summary() == plain.stats.summary()
        assert snapshotted.state_dict()["stats"] == plain.state_dict()["stats"]


class TestStatsUnderEitherDriver:
    """``pipeline.stats`` carries the workers' totals however the
    pipeline was driven: a stack's graph walk never passes through
    ``run_packets``, and its stats used to read 0 for them."""

    DERIVED = ("measurements", "packets_processed", "packets_sampled_out", "queue_share")

    @pytest.fixture(scope="class")
    def trace(self):
        from repro.traffic import GeneratorConfig, TrafficGenerator

        return TrafficGenerator(
            config=GeneratorConfig(duration_ns=2_000_000_000, mean_flows_per_s=50, seed=3)
        ).packet_list()

    def _matches_snapshot(self, pipeline):
        stats, snapshot = pipeline.stats, pipeline.stats_snapshot()
        for name in self.DERIVED:
            assert getattr(stats, name) == getattr(snapshot, name), name
        assert stats.tracker == snapshot.tracker
        return stats

    def test_under_the_stack(self, trace):
        from repro.stack import build_measure_stack

        stack = build_measure_stack(queues=2)
        report = stack.run(trace)
        stats = self._matches_snapshot(stack.pipeline)
        assert stats.measurements == report.stats.measurements == len(
            stack.pipeline.measurements
        ) > 0
        assert stats.packets_processed == stats.packets_queued > 0

    def test_under_run_packets(self, trace):
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=2))
        returned = pipeline.run_packets(trace)
        stats = self._matches_snapshot(pipeline)
        assert stats == returned
        assert stats.measurements == len(pipeline.measurements) > 0

    def test_both_drivers_agree(self, trace):
        from repro.stack import build_measure_stack

        stack = build_measure_stack(queues=2)
        stack.run(trace)
        bare = RuruPipeline(config=PipelineConfig(num_queues=2))
        bare.run_packets(trace)
        assert stack.pipeline.stats.summary() == bare.stats.summary()


class TestShutdownFlagTrailingBatch:
    def test_trailing_partial_batch_honours_shutdown_flag(self, small_workload):
        """A flag raised mid-stream must not feed one more burst."""
        _, packets = small_workload
        feed_batch = 60
        full_batches = len(packets) // feed_batch
        assert len(packets) % feed_batch != 0, "fixture must leave a tail"
        calls = {"n": 0}

        def flag_on_trailing_poll():
            calls["n"] += 1
            return calls["n"] > full_batches

        pipeline = RuruPipeline(
            config=PipelineConfig(num_queues=2), feed_batch=feed_batch
        )
        stats = pipeline.run_packets(packets, shutdown_flag=flag_on_trailing_poll)
        assert stats.packets_offered == full_batches * feed_batch
        assert stats.packets_processed == stats.packets_queued

    def test_trailing_partial_batch_fed_when_flag_stays_low(self, small_workload):
        _, packets = small_workload
        pipeline = RuruPipeline(
            config=PipelineConfig(num_queues=2), feed_batch=64
        )
        stats = pipeline.run_packets(packets, shutdown_flag=lambda: False)
        assert stats.packets_offered == len(packets)
