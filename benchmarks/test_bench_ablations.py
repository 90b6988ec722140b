"""Design-choice ablations called out in DESIGN.md.

* Flow-table sizing under a SYN flood: eviction bounds memory while
  real flows keep being measured.
* Strict vs lenient sequence validation: the correctness/cost trade.
* Parse-path cost: the fast pre-parser vs full header decoding.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.net.ethernet import EthernetFrame
from repro.net.ipv4 import IPv4Header
from repro.net.parser import PacketParser
from repro.net.tcp import TcpHeader
from repro.traffic.scenarios import AucklandLaScenario, SynFloodInjector

NS_PER_S = 1_000_000_000


class TestFlowTableSizing:
    @pytest.mark.parametrize("table_size", [256, 1024, 1 << 16])
    def test_flood_resilience_by_table_size(self, table_size):
        flood = SynFloodInjector(
            flood_start_ns=0, flood_duration_ns=8 * NS_PER_S, rate_per_s=2500
        )
        generator = AucklandLaScenario(
            duration_ns=8 * NS_PER_S, mean_flows_per_s=25, seed=55,
            diurnal=False,
        ).build(injectors=[flood], keep_specs=True)
        config = PipelineConfig(num_queues=2, flow_table_size=table_size)
        pipeline = RuruPipeline(config=config)
        stats = pipeline.run_packets(generator.packets())
        real = [
            s for s in generator.specs
            if s.completes and not s.rst_after_synack
        ]
        survival = stats.measurements / len(real)
        evicted = sum(
            worker.tracker.table.evicted for worker in pipeline.workers
        )
        print(f"\nAblation: table={table_size} -> {survival:.0%} of real "
              f"flows measured under flood ({evicted} evictions)")
        for occupancy in pipeline.flow_table_occupancy():
            assert occupancy <= table_size
        # Even tiny tables keep most real measurements: handshakes
        # complete fast, so entries are short-lived.
        assert survival > 0.55
        if table_size >= 1024:
            assert survival > 0.9


class TestSequenceValidation:
    def test_bench_strict(self, benchmark, workload_10s):
        _, packets = workload_10s

        def run(strict):
            config = PipelineConfig(num_queues=2, strict_sequence_check=strict)
            pipeline = RuruPipeline(config=config)
            return pipeline.run_packets(packets)

        stats = benchmark(run, True)
        print(f"\nAblation: strict seq check -> {stats.measurements} "
              f"measurements, {stats.tracker.seq_mismatch} rejects")

    def test_bench_lenient(self, benchmark, workload_10s):
        _, packets = workload_10s

        def run():
            config = PipelineConfig(num_queues=2, strict_sequence_check=False)
            pipeline = RuruPipeline(config=config)
            return pipeline.run_packets(packets)

        stats = benchmark(run)
        print(f"\nAblation: lenient -> {stats.measurements} measurements")

    def test_same_results_on_clean_traffic(self, workload_10s):
        """On well-formed traffic the modes must agree exactly."""
        _, packets = workload_10s
        results = []
        for strict in (True, False):
            config = PipelineConfig(num_queues=2, strict_sequence_check=strict)
            pipeline = RuruPipeline(config=config)
            pipeline.run_packets(packets)
            results.append(sorted(r.total_ns for r in pipeline.measurements))
        assert results[0] == results[1]


class TestFlowSampling:
    @pytest.mark.parametrize("modulus", [1, 4, 16])
    def test_bench_sampling_sheds_load(self, benchmark, workload_10s, modulus):
        """The overload lever: 1/N flow sampling cuts tracker and
        observer load proportionally while the latency sample stays
        unbiased. The port's header pass runs on every frame, before
        the hash that sampling keys on exists; only a frame that
        arrives as raw bytes (the shard wire) is sampled out unparsed."""
        _, packets = workload_10s

        def run():
            config = PipelineConfig(
                num_queues=4, flow_sample_modulus=modulus
            )
            pipeline = RuruPipeline(config=config)
            stats = pipeline.run_packets(packets)
            return pipeline, stats

        pipeline, stats = benchmark(run)
        skipped = sum(w.packets_sampled_out for w in pipeline.workers)
        rate = stats.packets_offered / benchmark.stats["mean"]
        print(f"\nAblation: sampling 1/{modulus} -> {rate:,.0f} pkt/s, "
              f"{stats.measurements} measurements, {skipped} packets "
              f"sampled out before the tracker")
        if modulus == 1:
            assert skipped == 0
        else:
            assert skipped > 0


class TestMixedTraffic:
    def test_bench_noise_filter_path(self, benchmark, workload_10s):
        """'Analyzes all traffic going through the NIC': non-TCP load
        must be classified and dropped without hurting measurement."""
        from repro.traffic.noise import NoiseGenerator, merge_streams

        generator, tcp_packets = workload_10s
        noise = NoiseGenerator(
            plan=generator.plan, duration_ns=10 * NS_PER_S,
            udp_rate_per_s=200, icmp_rate_per_s=20, seed=21,
        )
        mixed = list(merge_streams(iter(tcp_packets), noise.packets()))

        def run():
            pipeline = RuruPipeline(config=PipelineConfig(num_queues=4))
            return pipeline.run_packets(mixed)

        stats = benchmark(run)
        noise_count = len(mixed) - len(tcp_packets)
        assert stats.parse_errors == noise_count
        assert stats.measurements > 400  # TCP measurement unaffected
        rate = len(mixed) / benchmark.stats["mean"]
        print(f"\nAblation: mixed traffic ({noise_count} non-TCP of "
              f"{len(mixed)}) -> {rate:,.0f} pkt/s, drops bucketed as "
              f"{dict(stats.parse_error_reasons)}")


class TestParsePath:
    def test_bench_fast_preparse(self, benchmark, workload_10s):
        _, packets = workload_10s
        parser = PacketParser()

        def run():
            count = 0
            for packet in packets:
                parser.parse(packet.data, packet.timestamp_ns)
                count += 1
            return count

        count = benchmark(run)
        rate = count / benchmark.stats["mean"]
        print(f"\nAblation: fast pre-parser {rate:,.0f} pkt/s")

    def test_bench_full_decode(self, benchmark, workload_10s):
        """What the paper's 'pre-parsing' avoids: full header objects."""
        _, packets = workload_10s

        def run():
            count = 0
            for packet in packets:
                frame = EthernetFrame.unpack(packet.data)
                ip = IPv4Header.unpack(frame.payload)
                TcpHeader.unpack(ip.payload)
                count += 1
            return count

        count = benchmark(run)
        rate = count / benchmark.stats["mean"]
        print(f"\nAblation: full decode {rate:,.0f} pkt/s "
              f"(the cost pre-parsing avoids)")
