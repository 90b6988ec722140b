"""E3: RSS scaling and queue balance ("for scalability and performance,
we configure symmetric RSS … multiple DPDK receiver queues").

On real hardware each queue is a core, so throughput scales with queue
count; the cooperative simulation cannot show wall-clock speedup, so
this bench reports what *does* transfer: per-queue load balance (RSS
spreads flows evenly), measurement completeness at every queue count,
and the ablation the symmetric key exists for — with the standard
asymmetric key, a flow's two directions land on different queues and
handshake matching collapses.
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import RuruPipeline
from repro.dpdk.rss import DEFAULT_RSS_KEY, SYMMETRIC_RSS_KEY


class TestQueueScaling:
    @pytest.mark.parametrize("num_queues", [1, 2, 4, 8])
    def test_bench_queue_sweep(self, benchmark, workload_10s, num_queues):
        _, packets = workload_10s

        def run():
            pipeline = RuruPipeline(
                config=PipelineConfig(num_queues=num_queues)
            )
            stats = pipeline.run_packets(packets)
            return pipeline, stats

        pipeline, stats = benchmark(run)
        balance = pipeline.queue_balance()
        # RSS must spread flows roughly evenly across queues.
        assert len(balance) == num_queues
        expected = 1.0 / num_queues
        for share in balance:
            assert expected * 0.5 < share < expected * 1.8
        # Measurement results must not depend on the queue count.
        assert stats.measurements > 400
        rate = stats.packets_offered / benchmark.stats["mean"]
        shares = ", ".join(f"{share:.2f}" for share in balance)
        print(f"\nE3: queues={num_queues} -> {rate:,.0f} pkt/s, "
              f"balance [{shares}], measurements={stats.measurements}")


class TestSymmetryAblation:
    def test_asymmetric_key_breaks_measurement(self, workload_10s):
        """The design-choice ablation: without the symmetric key the
        per-queue tables stop seeing both flow directions."""
        _, packets = workload_10s

        def run_with(key):
            pipeline = RuruPipeline(
                config=PipelineConfig(num_queues=8, rss_key=key)
            )
            return pipeline.run_packets(packets)

        symmetric = run_with(SYMMETRIC_RSS_KEY)
        asymmetric = run_with(DEFAULT_RSS_KEY)
        loss = 1 - asymmetric.measurements / symmetric.measurements
        print(f"\nE3 ablation: symmetric={symmetric.measurements} vs "
              f"asymmetric={asymmetric.measurements} measurements "
              f"({loss:.0%} lost without key symmetry)")
        assert symmetric.measurements > 400
        # With 8 queues, ~7/8 of flows split across queues and are lost.
        assert asymmetric.measurements < 0.45 * symmetric.measurements
        # The orphan counters explain where they went.
        assert asymmetric.tracker.orphan_synack > 0


class TestProcessShardScaling:
    """The same RSS sweep with real OS processes (``repro.shard``).

    On multi-core hardware each worker shard is a core, so wall-clock
    throughput scales with shard count — the claim the in-process
    sweep above cannot test. On a single-core runner the speedup gate
    is skipped (fork + IPC overhead dominates there); what always
    holds, at every shard count, is measurement completeness and the
    conservation ledger.
    """

    def _run_once(self, packets, shards):
        import time as _time

        from repro.core.feed import drive
        from repro.shard.runtime import ShardedRuntime

        runtime = ShardedRuntime(shards, PipelineConfig(num_queues=shards))
        started = _time.perf_counter()
        try:
            drive(runtime.offer, packets, size=256)
            report = runtime.drain()
        finally:
            runtime.close()
        elapsed = _time.perf_counter() - started
        assert report.ok, report.failed_checks()
        return report, elapsed

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_bench_process_shard_sweep(
        self, benchmark, workload_10s, bench_record, shards
    ):
        _, packets = workload_10s

        def run():
            return self._run_once(packets, shards)

        report, _ = benchmark.pedantic(run, rounds=3, iterations=1)
        ledger = report.ledger
        assert ledger.ok and ledger.processed == len(packets)
        assert report.records["emitted"] > 400
        rate = len(packets) / benchmark.stats.stats.min
        bench_record(
            f"shard.pkts_per_s.{shards}",
            rate,
            unit="pkt/s",
            noise=0.35,
        )
        print(
            f"\nE3-proc: shards={shards} -> {rate:,.0f} pkt/s, "
            f"records={report.records['emitted']}, ledger balance "
            f"{ledger.balance:+d}"
        )

    def test_shard_count_does_not_change_measurements(self, workload_10s):
        """Completeness is topology-invariant: every shard count sees
        the same record multiset (symmetric RSS keeps flows whole)."""
        _, packets = workload_10s
        counts = {}
        for shards in (1, 4):
            report, _ = self._run_once(packets, shards)
            counts[shards] = report.records["emitted"]
        assert counts[1] == counts[4] > 400

    def test_bench_speedup_at_4_shards(self, workload_10s, bench_record):
        """Wall-clock scaling, gated on the cores to show it."""
        import os as _os

        _, packets = workload_10s
        best = {}
        for shards in (1, 4):
            best[shards] = min(
                self._run_once(packets, shards)[1] for _ in range(3)
            )
        speedup = best[1] / best[4]
        bench_record(
            "shard.speedup_4x",
            speedup,
            unit="x",
            noise=0.5,
            portable=True,
        )
        cores = _os.cpu_count() or 1
        print(
            f"\nE3-proc: 4-shard speedup {speedup:.2f}x "
            f"({cores} core(s) available)"
        )
        if cores >= 4:
            assert speedup > 1.5, (
                f"4 worker processes on {cores} cores should beat one "
                f"process by >1.5x, got {speedup:.2f}x"
            )
