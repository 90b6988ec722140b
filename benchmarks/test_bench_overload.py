"""Overload-control overhead gate: sensing must stay near-free.

The overload controller rides the hot feed loop — every frame passes
``admit_frame`` and every batch ticks the watermark sensors — so its
idle cost is a correctness property: this gate fails the build if the
clean ``auckland-baseline`` scenario with overload control enabled
regresses more than 10% against the identical run without it. The
workload is deliberately un-overloaded: the ladder must never leave
``full``, so the measurement isolates pure sensing/triage overhead
(classification, counters, control-loop ticks) with zero shedding.

Methodology mirrors the checkpoint and telemetry gates: strict
alternation in one process, CPU time via ``time.process_time``, and
the smaller of the median/median and min/min estimators so a one-sided
noise spike cannot fail the build.
"""

import gc
import statistics
import time

from repro.scenarios import run_scenario
from repro.scenarios.library import get_scenario

PAIRS = 6
MAX_REGRESSION = 0.10

#: The baseline's tiers plus the overload tier, at the controller's defaults.
OVERLOAD_ON = {
    "stack.tiers": [*get_scenario("auckland-baseline").stack.tiers, "overload"],
}


def _timed_run(spec, overrides=None):
    gc.collect()
    gc.disable()
    started = time.process_time()
    result = run_scenario(spec, overrides=overrides)
    elapsed = time.process_time() - started
    gc.enable()
    assert result.ok, result.render()
    return elapsed, result


class TestOverloadOverhead:
    def test_overhead_within_budget(self, bench_record):
        spec = get_scenario("auckland-baseline")

        # Warm both paths before timing.
        _timed_run(spec)
        _timed_run(spec, OVERLOAD_ON)

        base_times, overload_times = [], []
        result = None
        for _ in range(PAIRS):
            base_times.append(_timed_run(spec)[0])
            elapsed, result = _timed_run(spec, OVERLOAD_ON)
            overload_times.append(elapsed)

        # The controller really ran — and found nothing to shed on
        # clean traffic: the ladder never left `full`.
        assert result.metric("overload.level_max") == 0
        assert result.metric("overload.offered.handshake") > 0
        assert result.metric("overload.shed.payload") == 0
        assert result.metric("overload.shed.handshake") == 0

        median_est = (
            statistics.median(overload_times) / statistics.median(base_times)
            - 1
        )
        min_est = min(overload_times) / min(base_times) - 1
        overhead = min(median_est, min_est)
        bench_record(
            "overload.sensing_overhead_fraction", max(overhead, 0.0),
            unit="fraction", higher_is_better=False, noise=1.0,
        )
        print(
            f"\noverload sensing overhead: median-est {median_est:+.1%}, "
            f"min-est {min_est:+.1%} over {PAIRS} interleaved pairs "
            f"(clean workload, ladder stayed at "
            f"level {result.metric('overload.level'):.0f})"
        )
        assert overhead <= MAX_REGRESSION, (
            f"overload sensing overhead {overhead:.1%} exceeds the "
            f"{MAX_REGRESSION:.0%} budget "
            f"(median-est {median_est:.1%}, min-est {min_est:.1%})"
        )
