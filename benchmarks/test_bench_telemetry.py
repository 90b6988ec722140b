"""Telemetry overhead smoke: instrumentation must stay near-free.

The observability subsystem rides on the packet path, so its cost is a
correctness property. The one timing point is ``StageGraph.process``
— with a ``Telemetry`` attached the graph times every stage of every
feed batch on the wall / cpu / virtual planes — so the gate runs the
live preset under the one driver, ``build_live_stack(...).run()``,
and fails the build if a fully instrumented run (registry + graph
timing + 1 s self-monitoring exports) regresses throughput by more
than 10% against a run with no ``Telemetry`` measured in the same
process.

Methodology: the two configurations alternate strictly, each sample
runs the workload twice (longer samples damp proportional noise), and
timing uses CPU time (``time.process_time``) so wall-clock waits do
not count. Machine noise on shared runners is heavy-tailed and
positive, so the gate takes the smaller of two robust estimators —
median/median and min/min across the sample pairs; a real regression
shifts both, while a noise spike on one side moves at most one.
"""

import gc
import statistics
import time

from repro.obs import Telemetry
from repro.stack import build_live_stack

PAIRS = 12
REPEATS_PER_SAMPLE = 2
MAX_REGRESSION = 0.10


def _timed_run(workload, instrumented=False):
    """REPEATS_PER_SAMPLE live-preset runs; (cpu_seconds, stats, telemetry)
    of the last."""
    generator, packets = workload
    elapsed = 0.0
    for _ in range(REPEATS_PER_SAMPLE):
        telemetry = Telemetry() if instrumented else None
        stack = build_live_stack(
            generator=generator, telemetry=telemetry, frontend_hwm=1 << 20
        )
        if instrumented:
            telemetry.export_to(stack.service.tsdb)
        gc.collect()
        gc.disable()
        started = time.process_time()
        stats = stack.run(packets).stats
        elapsed += time.process_time() - started
        gc.enable()
    return elapsed, stats, telemetry


class TestTelemetryOverhead:
    def test_overhead_within_budget(self, workload_10s):
        """Instrumented throughput within 10% of uninstrumented."""
        # Warm both paths before timing.
        _timed_run(workload_10s)
        _timed_run(workload_10s, instrumented=True)

        base_times, instrumented_times = [], []
        for _ in range(PAIRS):
            base_times.append(_timed_run(workload_10s)[0])
            elapsed, stats, telemetry = _timed_run(workload_10s, instrumented=True)
            instrumented_times.append(elapsed)

        # The instrumented run actually instrumented: stages timed,
        # exports written, measurements produced.
        assert telemetry.profiler.stages["workers"].wall_ns > 0
        assert telemetry.exporter.exports >= 3
        assert stats.measurements > 0

        median_est = (
            statistics.median(instrumented_times) / statistics.median(base_times) - 1
        )
        min_est = min(instrumented_times) / min(base_times) - 1
        overhead = min(median_est, min_est)
        print(
            f"\ntelemetry overhead: median-est {median_est:+.1%}, "
            f"min-est {min_est:+.1%} over {PAIRS} interleaved pairs"
        )
        assert overhead <= MAX_REGRESSION, (
            f"telemetry overhead {overhead:.1%} exceeds the "
            f"{MAX_REGRESSION:.0%} budget "
            f"(median-est {median_est:.1%}, min-est {min_est:.1%})"
        )

    def test_bench_instrumented_live_stack(self, benchmark, workload_10s):
        """Throughput of the live preset with full telemetry attached."""
        generator, packets = workload_10s

        def run():
            telemetry = Telemetry()
            stack = build_live_stack(
                generator=generator, telemetry=telemetry, frontend_hwm=1 << 20
            )
            telemetry.export_to(stack.service.tsdb)
            return stack.run(packets).stats, telemetry

        stats, telemetry = benchmark(run)
        assert stats.nic_drops == 0
        rate = stats.packets_offered / benchmark.stats["mean"]
        print(
            f"\ntelemetry: instrumented live stack {rate:,.0f} packets/s "
            f"({telemetry.profiler.batches} timed batches, "
            f"{telemetry.exporter.points_written} self-mon points)"
        )
