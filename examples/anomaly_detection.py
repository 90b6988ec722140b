#!/usr/bin/env python
"""The paper's flagship use case: finding the nightly firewall glitch.

REANNZ's deployment found "a periodic firewall update was causing a
4000 ms latency increase on all connections that were started within a
specific, very short time period each night", invisible to SNMP-style
5-minute averages. This example reproduces the finding end to end:

1. simulate a night of traffic with the glitch injected at 03:00;
2. run the full pipeline + analytics stack;
3. show that 5-minute averages (what SNMP-era tooling sees) barely
   move, while Ruru's per-flow view and spike detector nail the
   window;
4. also inject a SYN flood and catch it with the packet-level
   detector.

Run:  python examples/anomaly_detection.py
"""

from repro import build_live_stack
from repro.tsdb.query import Query
from repro.traffic.scenarios import (
    AucklandLaScenario,
    FirewallGlitchInjector,
    SynFloodInjector,
)

NS_PER_S = 1_000_000_000
NS_PER_MIN = 60 * NS_PER_S

# Simulate 02:55-03:10 of the night: the glitch hits 03:00-03:01.
START_NS = (2 * 3600 + 55 * 60) * NS_PER_S
DURATION_NS = 15 * NS_PER_MIN


def main() -> None:
    glitch = FirewallGlitchInjector(
        window_start_offset_ns=3 * 3600 * NS_PER_S,
        window_ns=60 * NS_PER_S,
        extra_delay_ms=4000.0,
    )
    flood = SynFloodInjector(
        flood_start_ns=START_NS + 12 * NS_PER_MIN,
        flood_duration_ns=10 * NS_PER_S,
        rate_per_s=2000,
    )
    scenario = AucklandLaScenario(
        duration_ns=DURATION_NS, start_ns=START_NS,
        mean_flows_per_s=40, seed=99, diurnal=True,
    )
    generator = scenario.build(injectors=[glitch, flood])

    # The live preset with detectors attached: the measurement
    # detectors tap the enriched stream, the SYN-flood detector taps
    # raw packets at the workers.
    stack = build_live_stack(generator=generator, queues=4, anomaly=True)
    stack.run()
    service, manager = stack.service, stack.anomaly

    print(f"Flows in glitch window: {glitch.affected_flows}")
    print(f"SYN-flood packets injected: ~{flood.flows_injected}")

    # --- What an SNMP-style 5-minute mean sees ------------------------
    print("\n5-minute mean end-to-end latency (the SNMP-era view):")
    coarse = service.tsdb.query(Query(
        "latency", "total_ms", "mean",
        start_ns=START_NS, end_ns=START_NS + DURATION_NS,
        group_by_time_ns=5 * NS_PER_MIN,
    ))
    for window, value in coarse.groups.get((), []):
        minute = (window - START_NS) // NS_PER_MIN
        print(f"  t+{minute:02d}min..+{minute + 5:02d}min: {value:8.1f} ms")

    # --- What Ruru sees ------------------------------------------------
    print("\nPer-10s p99 end-to-end latency (Ruru's view):")
    fine = service.tsdb.query(Query(
        "latency", "total_ms", "p99",
        start_ns=START_NS, end_ns=START_NS + DURATION_NS,
        group_by_time_ns=10 * NS_PER_S,
    ))
    for window, value in fine.groups.get((), []):
        seconds = (window - START_NS) // NS_PER_S
        bar = "#" * min(60, int(value / 75))
        print(f"  t+{seconds:4d}s: {value:8.1f} ms {bar}")

    # --- The detectors --------------------------------------------------
    print("\nAnomaly events:")
    for event in manager.finish(now_ns=START_NS + DURATION_NS):
        print(f"  {event}")


if __name__ == "__main__":
    main()
