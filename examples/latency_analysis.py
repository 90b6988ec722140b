#!/usr/bin/env python
"""Offline latency analysis: mixture models, drift, and heatmaps.

The paper aggregates measurements "for further analysis" and cites
Fontugne et al.'s lognormal mixture methodology for RTT populations.
This example runs a day-segment of traffic through the live stack
preset, tapping the enriched frontend stream as it passes, then
analyzes the measurements three ways:

1. per-path mixture fits — how many latency states does each path
   have, and where are the modes?
2. window drift — which paths' populations changed between the first
   and second half of the run (the firewall glitch shows up here)?
3. a terminal heatmap of the latency population over time.

Run:  python examples/latency_analysis.py
"""

from repro import build_live_stack
from repro.analysis.report import analyze_paths, compare_windows
from repro.frontend.heatmap import LatencyBuckets, render_heatmap
from repro.traffic.scenarios import AucklandLaScenario, FirewallGlitchInjector

NS_PER_S = 1_000_000_000
DURATION_S = 120


def main() -> None:
    # Glitch in the second half, so the two halves drift apart.
    glitch = FirewallGlitchInjector(
        window_start_offset_ns=80 * NS_PER_S, window_ns=20 * NS_PER_S
    )
    generator = AucklandLaScenario(
        duration_ns=DURATION_S * NS_PER_S, mean_flows_per_s=40,
        seed=61, diurnal=False,
    ).build(injectors=[glitch])

    stack = build_live_stack(generator=generator, frontend_hwm=10_000)
    # Capture the enriched stream for offline analysis as it passes.
    measurements = []
    stack.graph.get("frontend").observers.append(measurements.append)
    stack.run()

    print(f"Measurements analyzed: {len(measurements)} "
          f"(glitch affected {glitch.affected_flows} flows)\n")

    # --- 1. Per-path mixture fits -------------------------------------
    print("Per-path lognormal mixture fits (top paths by volume):")
    for path in analyze_paths(measurements, min_samples=30)[:8]:
        modality = "MULTIMODAL" if path.is_multimodal else "unimodal"
        print(f"  {path.pair[0]:>16} -> {path.pair[1]:<16} "
              f"n={path.sample_count:<4} median={path.median_ms:7.1f}ms "
              f"[{modality}: {path.mode_summary()}]")

    # --- 2. Window drift -------------------------------------------------
    half = (DURATION_S // 2) * NS_PER_S
    before = [m for m in measurements if m.timestamp_ns < half]
    after = [m for m in measurements if m.timestamp_ns >= half]
    print("\nPopulation drift, first half vs second half (KS statistic):")
    for drift in compare_windows(before, after, min_samples=25)[:6]:
        marker = "***" if drift.significant else "   "
        print(f"  {marker} {drift.pair[0]:>16} -> {drift.pair[1]:<16} "
              f"KS={drift.ks:.2f} median {drift.before_median_ms:6.1f} -> "
              f"{drift.after_median_ms:6.1f} ms")

    # --- 3. Heatmap --------------------------------------------------------
    print("\nEnd-to-end latency heatmap (10 s windows, log buckets):")
    heatmap = render_heatmap(
        stack.tsdb,
        window_ns=10 * NS_PER_S,
        buckets=LatencyBuckets(minimum_ms=1, maximum_ms=10_000, count=12),
    )
    print(heatmap.ascii())
    print(f"\n({heatmap.total} samples; the detached top band during the "
          f"glitch window is the 4000 ms population)")


if __name__ == "__main__":
    main()
