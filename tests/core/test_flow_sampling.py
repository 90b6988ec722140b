"""Flow-sampling tests: the overload lever."""

import statistics

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline


def _run(packets, modulus, queues=2):
    config = PipelineConfig(num_queues=queues, flow_sample_modulus=modulus)
    pipeline = RuruPipeline(config=config)
    stats = pipeline.run_packets(packets)
    return pipeline, stats


class TestFlowSampling:
    def test_modulus_one_measures_everything(self, small_workload):
        generator, packets = small_workload
        _, full = _run(packets, modulus=1)
        completing = sum(
            1 for s in generator.specs
            if s.completes and not s.rst_after_synack
        )
        assert full.measurements == completing

    @pytest.mark.parametrize("modulus", [2, 4, 8])
    def test_sampled_fraction_tracks_modulus(self, small_workload, modulus):
        _, packets = small_workload
        _, full = _run(packets, modulus=1)
        _, sampled = _run(packets, modulus=modulus)
        fraction = sampled.measurements / full.measurements
        expected = 1.0 / modulus
        assert expected * 0.5 < fraction < expected * 1.9

    def test_sampling_is_flow_consistent(self, small_workload):
        """A sampled flow is fully measured, never half-tracked: no
        orphan SYN-ACKs from sampling (both directions share the
        symmetric hash)."""
        _, packets = small_workload
        _, sampled = _run(packets, modulus=4)
        assert sampled.tracker.orphan_synack == 0

    def test_latency_sample_unbiased(self, small_workload):
        """The Toeplitz hash knows nothing about latency, so the
        sampled median must track the full median."""
        _, packets = small_workload
        pipeline_full, _ = _run(packets, modulus=1)
        pipeline_sampled, _ = _run(packets, modulus=4)
        full_median = statistics.median(
            r.total_ms for r in pipeline_full.measurements
        )
        sampled_median = statistics.median(
            r.total_ms for r in pipeline_sampled.measurements
        )
        assert abs(sampled_median - full_median) / full_median < 0.35

    def test_sampled_out_counted_and_cheap(self, small_workload):
        _, packets = small_workload
        pipeline, stats = _run(packets, modulus=4)
        skipped = sum(w.packets_sampled_out for w in pipeline.workers)
        assert skipped > 0
        assert skipped + stats.tracker.packets + stats.parse_errors == \
            stats.packets_queued

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(flow_sample_modulus=0).validate()


class TestRetaRebalance:
    def test_rebalance_shifts_load(self, small_workload):
        from repro.dpdk.nic import NicPort

        _, packets = small_workload
        nic = NicPort(num_queues=4)
        nic.rebalance([1, 1, 1, 5])  # bias toward queue 3
        for packet in packets[:2000]:
            nic.receive(packet)
        balance = nic.queue_balance()
        assert balance[3] > 0.4
        assert all(share > 0.02 for share in balance[:3])

    def test_rebalance_validation(self):
        from repro.dpdk.nic import NicPort

        nic = NicPort(num_queues=2)
        with pytest.raises(ValueError):
            nic.rebalance([1])
        with pytest.raises(ValueError):
            nic.rebalance([0, 0])
        with pytest.raises(ValueError):
            nic.rebalance([-1, 2])

    def test_midrun_rebalance_breaks_in_flight_handshakes(self, small_workload):
        """The documented ablation: changing the RETA mid-run strands
        in-flight handshakes on their old queue's table."""
        _, packets = small_workload
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
        half = len(packets) // 2
        for packet in packets[:half]:
            pipeline.offer(packet)
        pipeline.drain()
        pipeline.nic.rebalance([5, 1, 1, 1])  # drastic shift mid-run
        for packet in packets[half:]:
            pipeline.offer(packet)
        pipeline.drain()
        stats = pipeline.stats_snapshot()

        baseline = RuruPipeline(config=PipelineConfig(num_queues=4))
        baseline_stats = baseline.run_packets(packets)
        # Some measurements are lost to the queue change, and the
        # orphan counters say why.
        assert stats.measurements < baseline_stats.measurements
        assert (
            stats.tracker.orphan_synack + stats.tracker.stray_ack
            > baseline_stats.tracker.orphan_synack
            + baseline_stats.tracker.stray_ack
        )
