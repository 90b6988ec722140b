"""Stage profiler: archive the per-stage cost map, gate its overhead.

Two jobs here. First, run the full stage graph once under the
profiler and attach its summary to the session resultset — that is
where ``stage.<name>.ns_per_packet`` and the machine-portable
``stage.<name>.wall_share`` metrics in ``benchmarks/baselines/``
come from, and what ``ruru perf compare`` gates stage-level
regressions against. Second, hold call attribution to the same ≤10%
budget as the rest of the telemetry: both sides of the pair carry a
``Telemetry`` (so the graph times every stage in both — that cost is
``test_bench_telemetry``'s to gate); only the ``sys.setprofile``
sampler differs.

Overhead methodology mirrors ``test_bench_telemetry``: strict
alternation, CPU time, and the smaller of the median/median and
min/min estimators so one noise spike cannot fail the gate.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.obs import Telemetry
from repro.stack.builder import build_live_stack
from repro.traffic.scenarios import AucklandLaScenario

NS_PER_S = 1_000_000_000
PAIRS = 10
MAX_REGRESSION = 0.10


def _graph_run(packets, profiler_sample=0):
    """One full stage-graph pass; returns (cpu_seconds, stack)."""
    telemetry = Telemetry()
    if profiler_sample:
        telemetry.enable_profiler(sample_every=profiler_sample)
    generator = AucklandLaScenario(
        duration_ns=NS_PER_S, mean_flows_per_s=10, seed=7, diurnal=False
    ).build(keep_specs=True)
    stack = build_live_stack(
        generator=generator, telemetry=telemetry, frontend_hwm=1 << 20
    )
    feed = stack.pipeline.feed_batch
    gc.collect()
    gc.disable()
    started = time.process_time()
    batch = []
    for packet in packets:
        batch.append(packet)
        if len(batch) >= feed:
            stack.process_batch(batch)
            batch.clear()
    stack.process_batch(batch)
    stack.drain()
    elapsed = time.process_time() - started
    gc.enable()
    return elapsed, stack


class TestStageProfiler:
    def test_bench_profiled_stage_graph(self, workload_10s, bench_resultset):
        """Profile the whole deployment; archive the stage cost map."""
        _, packets = workload_10s
        elapsed, stack = _graph_run(packets, profiler_sample=16)
        profiler = stack.telemetry.profiler

        summary = profiler.summary()
        assert "workers" in summary, "worker stage missing from profile"
        assert all(entry["calls"] > 0 for entry in summary.values())

        bench_resultset.record_stage_profile(summary)
        total = sum(entry["items"] for entry in summary.values())
        bench_resultset.record(
            "prof.graph.packets_per_s",
            len(packets) / max(elapsed, 1e-9),
            unit="packets/s",
            higher_is_better=True,
            noise=0.25,
        )
        print(f"\nprof: {len(summary)} stages profiled, "
              f"{len(packets)} packets in {elapsed:.2f}s cpu "
              f"({total} stage-item observations)")

    def test_profiler_overhead_within_budget(self, workload_10s):
        """Call attribution on within 10% of call attribution off."""
        _, packets = workload_10s
        # Warm both paths before timing.
        _graph_run(packets)
        _graph_run(packets, profiler_sample=16)

        base_times, profiled_times = [], []
        for _ in range(PAIRS):
            base_times.append(_graph_run(packets)[0])
            elapsed, stack = _graph_run(packets, profiler_sample=16)
            profiled_times.append(elapsed)

        # The profiled run actually profiled.
        profiler = stack.telemetry.profiler
        assert profiler.batches > 0
        assert profiler.total_wall_ns() > 0

        median_est = (
            statistics.median(profiled_times) / statistics.median(base_times) - 1
        )
        min_est = min(profiled_times) / min(base_times) - 1
        overhead = min(median_est, min_est)
        print(
            f"\nprofiler overhead: median-est {median_est:+.1%}, "
            f"min-est {min_est:+.1%} over {PAIRS} interleaved pairs"
        )
        assert overhead <= MAX_REGRESSION, (
            f"profiler overhead {overhead:.1%} exceeds the "
            f"{MAX_REGRESSION:.0%} budget "
            f"(median-est {median_est:.1%}, min-est {min_est:.1%})"
        )
