"""Failure injection: corrupted and truncated frames mid-stream.

A production tap delivers damaged frames (CRC-passed but truncated by
snaplen, slicing, or driver bugs). The pipeline must count and drop
them — never crash, never mis-measure.
"""

import random

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.net.packet import Packet
from repro.net.parser import PacketParser, ParseError


def _corrupt(packets, seed=1, truncate_rate=0.05, flip_rate=0.05):
    """Truncate some frames, flip bytes in others."""
    rng = random.Random(seed)
    out = []
    stats = {"truncated": 0, "flipped": 0}
    for packet in packets:
        roll = rng.random()
        if roll < truncate_rate and len(packet.data) > 20:
            cut = rng.randint(1, len(packet.data) - 1)
            out.append(Packet(data=packet.data[:cut],
                              timestamp_ns=packet.timestamp_ns))
            stats["truncated"] += 1
        elif roll < truncate_rate + flip_rate:
            data = bytearray(packet.data)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] ^= 0xFF
            out.append(Packet(data=bytes(data),
                              timestamp_ns=packet.timestamp_ns))
            stats["flipped"] += 1
        else:
            out.append(packet)
    return out, stats


class TestCorruptedFrames:
    def test_pipeline_survives_corruption(self, small_workload):
        _, packets = small_workload
        corrupted, stats = _corrupt(packets, truncate_rate=0.1, flip_rate=0.1)
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=2))
        result = pipeline.run_packets(corrupted)
        # Ran to completion; some measurements lost, none invented.
        assert result.measurements > 0
        clean = RuruPipeline(config=PipelineConfig(num_queues=2))
        clean_result = clean.run_packets(packets)
        assert result.measurements <= clean_result.measurements

    def test_truncation_counted_as_parse_errors(self, small_workload):
        _, packets = small_workload
        corrupted, stats = _corrupt(packets, truncate_rate=0.2, flip_rate=0.0)
        pipeline = RuruPipeline(config=PipelineConfig(num_queues=2))
        result = pipeline.run_packets(corrupted)
        # Most truncations land in a parse-error bucket (cuts inside
        # the Ethernet payload can still parse if headers survive).
        assert result.parse_errors > stats["truncated"] * 0.4

    def test_bitflips_never_crash_parser(self, small_workload):
        _, packets = small_workload
        parser = PacketParser(extract_timestamps=True)
        corrupted, _ = _corrupt(packets, truncate_rate=0.0, flip_rate=1.0,
                                seed=9)
        for packet in corrupted:
            try:
                parser.parse(packet.data, packet.timestamp_ns)
            except ParseError:
                pass  # the only acceptable exception

    def test_strict_mode_rejects_flipped_sequence_numbers(self, small_workload):
        """Bit flips in seq/ack fields must not produce bogus
        measurements under strict validation."""
        _, packets = small_workload
        corrupted, _ = _corrupt(packets, truncate_rate=0.0, flip_rate=0.15,
                                seed=3)
        strict = RuruPipeline(
            config=PipelineConfig(num_queues=2, strict_sequence_check=True)
        )
        result = strict.run_packets(corrupted)
        clean = RuruPipeline(config=PipelineConfig(num_queues=2))
        baseline = clean.run_packets(packets)
        assert result.measurements <= baseline.measurements


class TestDeterministicSoak:
    def test_full_runtime_bitwise_deterministic(self):
        """Same seed -> byte-identical TSDB export, twice."""
        from repro.stack import build_live_stack
        from repro.traffic.scenarios import AucklandLaScenario

        def one_run():
            generator = AucklandLaScenario(
                duration_ns=4_000_000_000, mean_flows_per_s=40,
                seed=77, diurnal=False,
            ).build()
            stack = build_live_stack(
                generator=generator, frontend_hwm=10_000, anomaly=True
            )
            stack.run()
            return "\n".join(stack.tsdb.dump_lines())

        assert one_run() == one_run()
