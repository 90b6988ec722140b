"""Command-line interface: ``ruru <command>``.

Subcommands mirror how the deployed system is operated:

* ``ruru generate`` — synthesize a workload and write it to a pcap.
* ``ruru measure`` — run the measurement pipeline over a pcap (or a
  freshly generated workload) and print latency records / stats.
* ``ruru demo`` — the paper's demo: full pipeline with analytics,
  dashboards and the live-map feed, printed as text.
* ``ruru detect`` — run the anomaly detectors over a scenario with an
  injected firewall glitch / SYN flood and print the events.
* ``ruru export`` — run a workload and export the measurement database
  as Influx line protocol (plus the Grafana dashboard JSON).
* ``ruru query`` — execute an InfluxQL-style query against an exported
  line-protocol file.
* ``ruru metrics`` — run a workload with full telemetry and print the
  Prometheus text exposition of every pipeline/mq/analytics metric,
  plus the SLO verdicts (``--slo-gate`` turns violations into a
  non-zero exit).
* ``ruru prof`` — per-stage profile of the live stack derived from the
  stage graph: wall/cpu/virtual accounting, packets/s and ns/packet
  per stage, sampled call attribution, collapsed-stack export for
  flamegraphs.
* ``ruru perf`` — benchmark resultset archive tools: ``compare`` two
  schema-versioned resultset JSONs with noise-aware thresholds (the CI
  perf-regression gate), ``show`` one.
* ``ruru scenario`` — the declarative scenario harness: ``list`` /
  ``show`` the committed scenario library, ``run`` one spec through
  the stage-graph runtime with correctness checks, ``batch`` a
  resumable (scenario × seed × override) grid into a resultset
  archive, ``compare`` runs against the committed baselines with
  exact invariant gating.
* ``ruru chaos`` — replay a workload under a named fault profile with
  the resilience layer active, and report fault counts, the count
  conservation check, breaker episodes and recovery times.
* ``ruru dlq`` — run a chaos scenario and inspect the dead-letter
  queue it produced.
* ``ruru live`` — run the durable monitor: periodic checkpoints, a
  TSDB write-ahead log, and a graceful drain on SIGINT/SIGTERM that
  leaves a clean checkpoint behind.
* ``ruru recover`` — hot-restart from a state directory: load the
  latest valid checkpoint, replay the WAL, report the reconciled
  ledger. ``--trial`` instead runs a kill-anywhere recovery trial at
  a named crash point.

A command that runs a stack is flags -> its base spec plus one dotted
path per flag (:data:`COMMANDS`, :data:`OPTIONS`) -> the one
:class:`~repro.scenarios.runner.Episode` (build, drive, drain; SIGINT /
SIGTERM stop the feed) -> a renderer of the drained stack. A flag the
run would not honour is refused by the spec or by ``build()``: one
``ruru <command>: error: …`` line, exit 2. So is a capture, line-protocol
file or query text the command cannot read, and a state directory whose
checkpoints another envelope version wrote.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.report import analyze_paths, compare_windows
from repro.durability import SnapshotError, recover_runtime, run_recovery_trial
from repro.durability.signals import GracefulShutdown
from repro.faults import PROFILES, chaos_ok, render_chaos
from repro.frontend.dashboard import build_ruru_dashboard
from repro.frontend.grafana import build_selfmon_dashboard, export_grafana_json
from repro.frontend.heatmap import LatencyBuckets, render_heatmap
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.net.pcap import PcapError, PcapWriter
from repro.net.pcapng import PcapngWriter, open_capture
from repro.obs.bench import collect_meta, compare, load_resultset
from repro.obs.slo import evaluate_slos, slos_from_dict
from repro.scenarios import (
    GridSpec, baseline_path, compare_scenario, get_scenario, load_library, run_grid, run_scenario,
)
from repro.scenarios.runner import Episode, build_scenario_generator
from repro.scenarios.spec import ScenarioSpec, SpecError, apply_overrides, parse_override_args
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.line_protocol import LineProtocolError
from repro.tsdb.ql import execute_statement
from repro.tsdb.query import QueryError

NS_PER_S = 1_000_000_000

# -- flags -> spec ---------------------------------------------------------------

#: Every option, declared once: the dotted spec path it sets (None for
#: what only a renderer or a mode reads) and its argparse definition. A
#: spec flag means the same in every command that takes it, and defaults
#: to the command's base-spec value. Four are switches rather than
#: values: ``--telemetry`` / ``--overload`` add their tier to
#: ``stack.tiers`` (:data:`TIER_FLAGS`); ``--glitch`` / ``--flood`` add a
#: firewall-glitch / SYN-flood window to ``anomalies``, placed where
#: their command places it. Names without dashes are positionals.
OPTIONS = {
    "--duration": ("traffic.duration_s", dict(type=float, help="seconds of traffic")),
    "--rate": ("traffic.rate", dict(type=float, help="mean flows per second")),
    "--seed": ("seed", dict(type=int, help="workload seed")),
    "--queues": ("stack.queues", dict(type=int, help="RSS receive queues")),
    "--telemetry": (None, dict(action="store_true", help="enable telemetry for this run")),
    "--telemetry-interval": ("telemetry.interval_s", dict(type=float, help="export cadence, s")),
    "--sample": ("telemetry.sample_every", dict(type=int, help="profile every Nth batch (0: off)")),
    "--glitch": (None, dict(action="store_true", help="inject a firewall glitch")),
    "--flood": (None, dict(action="store_true", help="inject a SYN flood")),
    "--profile": ("faults.profile", dict(help="fault profile name (see chaos --list)")),
    "--overload": (None, dict(action="store_true", help="overload control")),
    "--shards": ("shard.shards", dict(type=int, help="worker processes (0: in-process)")),
    "--shard-policy": ("shard.policy", dict(choices=("protect-handshakes", "reroute-all"))),
    "--kill-shard": ("shard.kill_shard", dict(type=int, help="with --shards: SIGKILL it")),
    "--kill-at-batch": ("shard.kill_at_batch", dict(type=int, help="when (default: batch 6)")),
    "--state-dir": ("durable.state_dir", dict(help="checkpoints and TSDB write-ahead log")),
    "--checkpoint-interval": ("durable.checkpoint_interval_s", dict(type=float, help="cadence, s")),
    "--keep-checkpoints": ("durable.keep_checkpoints", dict(type=int, help="checkpoints kept")),
    "--retention": ("durable.retention_s", dict(type=float, help="TSDB retention, s")),
    "--fsync-wal": ("durable.fsync_wal", dict(action="store_true", help="fsync every write")),
    "--output": (None, dict(help="file to write")),
    "--format": (None, dict(choices=["pcap", "pcapng"], default="pcap", help="capture format")),
    "--pcap": (None, dict(help="capture to replay (generates one if omitted)")),
    "--show": (None, dict(type=int, default=10, help="records to print")),
    "--count": (None, dict(type=int, default=20, help="lines to print")),
    "--grafana": (None, dict(help="also write the Grafana dashboard JSON here")),
    "--grafana-selfmon": (None, dict(help="also write the self-monitoring dashboard here")),
    "--slo-gate": (None, dict(action="store_true", help="exit 1 when any SLO is violated")),
    "--slo-config": (None, dict(help="JSON file of SLOs (replaces the default set)")),
    "--top": (None, dict(type=int, help="rows to print per section")),
    "--collapsed": (None, dict(help="write flamegraph-compatible collapsed stacks here")),
    "--json": (None, dict(help="write the profile summary JSON here")),
    "--list": (None, dict(action="store_true", help="list fault profiles and exit")),
    "--metrics": (None, dict(action="store_true", help="also print the resilience metrics")),
    "--limit": (None, dict(type=int, default=20, help="letters to show")),
    "--drain": (None, dict(action="store_true", help="after recovering, drain gracefully")),
    "--trial": (None, dict(metavar="CRASH_POINT", help="instead: a kill-anywhere trial")),
    "--hit": (None, dict(type=int, default=3, help="which pass over the point crashes")),
    "--file": (None, dict(required=True, help="line-protocol file")),
    "query": (None, dict(help='e.g. "SELECT mean(total_ms) FROM latency"')),
    "--threshold": (None, dict(type=float, default=0.15, help="tolerated fractional change")),
    "baseline": (None, dict(help="baseline resultset JSON")),
    "current": (None, dict(help="current resultset JSON")),
    "file": (None, dict(help="resultset JSON")),
    "name": (None, dict(help="library name or spec file path")),
    "--set": (None, dict(action="append", metavar="KEY=VALUE", help="dotted-path override")),
    "--profile-stages": (None, dict(action="store_true", help="archive per-stage timings")),
    "--out": (None, dict(help="where to write the results")),
    "scenarios": (None, dict(nargs="*", help="scenario names (default: the library)")),
    "--seeds": (None, dict(default="7", help="comma-separated seed axis")),
    "--variant": (None, dict(action="append", metavar="NAME:KEY=VALUE[,KEY=VALUE]")),
    "--no-resume": (None, dict(action="store_true", help="re-run cells already archived")),
    "--max-cells": (None, dict(type=int, help="stop after this many executed cells")),
    "names": (None, dict(nargs="*", help="scenario names (default: the library)")),
    "--baseline-dir": (None, dict(help="baseline directory (default: the committed one)")),
    "--write": (None, dict(action="store_true", help="write fresh baselines instead")),
}
#: The switches that each add one tier to the command's ``stack.tiers``.
TIER_FLAGS = {"--telemetry": "telemetry", "--overload": "overload"}
#: What ``--kill-shard`` alone means: the kill fires at this batch.
KILL_AT_BATCH = 6

WORKLOAD = ("--duration", "--rate", "--seed", "--queues", "--telemetry", "--telemetry-interval")
CHAOS = ("--profile", "--seed", "--duration", "--rate", "--queues", "--overload")
DURABLE = ("--state-dir", "--checkpoint-interval", "--keep-checkpoints", "--retention", "--fsync-wal")
WORKLOAD_BASE = {
    "seed": 7, "traffic.duration_s": 30.0, "traffic.rate": 50.0, "stack.queues": 4,
    "telemetry.interval_s": 1.0, "stack.tiers": ["analytics"],
}
CHAOS_TRAFFIC = {"seed": 42, "traffic.duration_s": 8.0, "traffic.rate": 40.0}
CHAOS_BASE = {
    **CHAOS_TRAFFIC, "faults.profile": "lossy-mq",
    "stack.tiers": ["analytics", "faults", "telemetry", "frontend"],
}
DURABLE_BASE = {
    **CHAOS_BASE, "faults.profile": "clean", "durable.state_dir": "ruru-state",
    "stack.tiers": ["analytics", "faults", "durable", "telemetry", "anomaly", "topk", "frontend"],
}
#: command -> (help, base spec as dotted paths over the ScenarioSpec
#: defaults — what the command runs given no flag —, its options). An
#: option written ``(flag, default)`` takes that default here.
COMMANDS = {
    "generate": ("write a synthetic workload pcap", WORKLOAD_BASE,
                 (*WORKLOAD, ("--output", "ruru-trace.pcap"), "--format")),
    "measure": ("measure latency over a trace", {**WORKLOAD_BASE, "stack.tiers": []},
                (*WORKLOAD, "--pcap", "--show")),
    "demo": ("full pipeline with analytics + frontends",
             {**WORKLOAD_BASE, "stack.tiers": ["analytics", "frontend"],
              "stack.frontend_hwm": 10_000}, WORKLOAD),
    "detect": ("run anomaly detection scenarios",
               {**WORKLOAD_BASE, "stack.tiers": ["analytics", "anomaly"]},
               (*WORKLOAD, "--glitch", "--flood")),
    "export": ("run a workload and export the TSDB as line protocol", WORKLOAD_BASE,
               (*WORKLOAD, ("--output", "ruru-measurements.lp"), "--grafana",
                "--grafana-selfmon")),
    "metrics": ("run a workload with telemetry and print the Prometheus exposition",
                {**WORKLOAD_BASE, "stack.tiers": ["analytics", "telemetry"]},
                (*WORKLOAD, "--slo-gate", "--slo-config")),
    "prof": ("per-stage profile of the live stack (timings, call attribution)",
             {**WORKLOAD_BASE, "stack.tiers": ["analytics", "telemetry", "frontend"],
              "stack.frontend_hwm": 10_000, "telemetry.interval_s": None,
              "telemetry.sample_every": 16},
             (*WORKLOAD, "--sample", ("--top", 10), "--collapsed", "--json")),
    "perf": ("benchmark resultset archive: compare or show runs", None, ()),
    "perf compare": ("diff two resultsets with noise-aware thresholds", None,
                     ("baseline", "current", "--threshold")),
    "perf show": ("print one resultset", None, ("file",)),
    "scenario": ("declarative scenario harness: list/show/run/batch/compare", None, ()),
    "scenario list": ("list the scenario library with descriptions", None, ()),
    "scenario show": ("print one scenario spec as JSON", None, ("name",)),
    "scenario run": ("run one scenario through the stage-graph runtime", None,
                     ("name", ("--seed", None), "--set", "--profile-stages", "--out")),
    "scenario batch": ("run a resumable (scenario x seed x override) grid", None,
                       ("scenarios", "--seeds", "--variant", ("--out", "ruru-grid"),
                        "--no-resume", "--max-cells")),
    "scenario compare": ("run scenarios fresh and gate against the committed baselines", None,
                         ("names", "--baseline-dir", "--threshold", "--write")),
    "dump": ("print packets tcpdump-style", WORKLOAD_BASE, (*WORKLOAD, "--pcap", "--count")),
    "analyze": ("mixture fits, drift and heatmap over a workload",
                {**WORKLOAD_BASE, "stack.tiers": ["analytics", "frontend"]},
                (*WORKLOAD, "--glitch", ("--top", 8))),
    "chaos": ("replay a workload under a fault profile and check invariants", CHAOS_BASE,
              (*CHAOS, "--shards", "--shard-policy", "--kill-shard", "--kill-at-batch",
               "--list", "--metrics")),
    "dlq": ("inspect the dead-letter queue after a chaos run", CHAOS_BASE, (*CHAOS, "--limit")),
    "live": ("run the durable monitor with checkpoints, WAL and graceful drain", DURABLE_BASE,
             (*CHAOS, "--shards", "--shard-policy", *DURABLE)),
    "recover": ("hot-restart from a state directory (or run a recovery trial)", DURABLE_BASE,
                (*CHAOS, *DURABLE, "--drain", "--trial", "--hit")),
    "query": ("run an InfluxQL-style query against an export", None, ("--file", "query")),
}
#: With ``--shards N``: the command's traffic and the shard settings of
#: a sharded CLI run, in place of its in-process base. ``live`` asks its
#: shards for a checkpoint every 8 rounds; ``chaos`` never does.
SHARDED = {**CHAOS_TRAFFIC, "shard.batch_size": 256, "shard.restart_delay_batches": 1}
SHARDED_BASES = {
    "chaos": SHARDED,
    "live": {**SHARDED, "shard.checkpoint_every_batches": 8},
}


def _lookup(document: dict, path: str):
    for part in path.split("."):
        document = document[part]
    return document


def _base_document(command: str) -> dict:
    return apply_overrides(ScenarioSpec(name=command), COMMANDS[command][1]).to_dict()


def _anomaly_windows(args) -> list:
    """``--glitch`` / ``--flood`` as anomaly windows, placed where the
    command has always placed them, to the nanosecond."""
    d = int(args.duration * NS_PER_S)
    glitch = (
        (d // 2, min(10 * NS_PER_S, d // 4)) if args.command == "detect"
        else (d * 2 // 3, max(NS_PER_S, d // 8))
    )
    wanted = [("firewall-glitch", *glitch)] * args.glitch + [
        ("syn-flood", d // 3, 5 * NS_PER_S)
    ] * getattr(args, "flood", False)
    return [
        {"kind": kind, "at_s": at / NS_PER_S, "duration_s": length / NS_PER_S}
        for kind, at, length in wanted
    ]


def _spec(args) -> ScenarioSpec:
    """Flags -> spec: the command's base spec plus every flag set away
    from its default."""
    command = args.command
    defaults = _base_document(command)
    overrides = {}
    for flag, (path, _) in OPTIONS.items():
        dest = flag.lstrip("-").replace("-", "_")
        if path is not None and hasattr(args, dest):
            value = getattr(args, dest)
            if value != _lookup(defaults, path):
                overrides[path] = value
    switched = [tier for flag, tier in TIER_FLAGS.items() if getattr(args, flag[2:], False)]
    if switched:
        overrides["stack.tiers"] = [*defaults["stack"]["tiers"], *switched]
    if getattr(args, "glitch", False) or getattr(args, "flood", False):
        overrides["anomalies"] = _anomaly_windows(args)
    if getattr(args, "kill_shard", None) is not None and args.kill_at_batch is None:
        overrides["shard.kill_at_batch"] = KILL_AT_BATCH
    base = SHARDED_BASES[command] if getattr(args, "shards", 0) else COMMANDS[command][1]
    return apply_overrides(
        ScenarioSpec(name=command, description=f"what ruru {command} runs"),
        {**base, **overrides},
    )


def command_spec(argv: Sequence[str]) -> ScenarioSpec:
    """The spec the command line ``ruru <argv…>`` runs."""
    return _spec(build_parser().parse_args(list(argv)))


def _run(args, packets=None, observers=(), folds_errors=False):
    """Flags -> spec -> the one episode, under SIGINT/SIGTERM: a signal
    stops the feed and the episode still drains. A run that raised
    raises here, unless the command's report folds the error in."""
    episode = Episode(_spec(args))
    with GracefulShutdown() as stop:
        episode.run(packets, stop=stop.requested, observers=observers)
    if episode.error is not None and not folds_errors:
        raise episode.error
    return episode, stop


def _interrupted(stop, what: str = "interrupted") -> None:
    if stop.requested():
        print(f"[{stop.signal_name}] {what} — drained gracefully")


# -- renderers ------------------------------------------------------------------


def _print_telemetry_summary(telemetry) -> None:
    """What the run's telemetry holds once the drain has flushed it."""
    if telemetry is None:
        return
    exporter = telemetry.exporter
    print("--- telemetry ---")
    if exporter is not None:
        print(
            f"self-monitoring exports: {exporter.exports} snapshots, "
            f"{exporter.points_written} points, "
            f"{len(exporter.series_names())} series"
        )


def _print_slos(results) -> None:
    print("--- slo ---")
    for result in results:
        print(result.render())


def cmd_generate(args) -> int:
    spec = _spec(args)
    generator = build_scenario_generator(spec, spec.seed)
    count = 0
    writer_cls = PcapngWriter if args.format == "pcapng" else PcapWriter
    with writer_cls(args.output) as writer:
        for packet in generator.packets():
            writer.write(packet)
            count += 1
    print(f"wrote {count} packets from {generator.flows_generated} flows to {args.output}")
    return 0


def cmd_measure(args) -> int:
    with open_capture(args.pcap) if args.pcap else contextlib.nullcontext() as capture:
        episode, _ = _run(args, packets=capture)
    stack = episode.stack
    pipeline, stats = stack.pipeline, episode.report.stats
    for record in pipeline.measurements[: args.show]:
        print(record)
    if len(pipeline.measurements) > args.show:
        print(f"... and {len(pipeline.measurements) - args.show} more")
    print("--- pipeline stats ---")
    for key, value in stats.summary(slo_results=stack.slo_results).items():
        print(f"{key:>20}: {value}")
    print(f"{'queue balance':>20}: "
          + ", ".join(f"{share:.2%}" for share in pipeline.queue_balance()))
    _print_telemetry_summary(stack.telemetry)
    if stack.telemetry is not None:
        print(stack.telemetry.registry.exposition(), end="")
    return 0


def cmd_demo(args) -> int:
    channel = WebSocketChannel()
    map_view = LiveMapView(channel=channel)
    episode, _ = _run(args, observers=[map_view.observe])
    stack, stats = episode.stack, episode.report.stats
    _print_telemetry_summary(stack.telemetry)
    map_view.finish()

    print(f"measurements: {stats.measurements}")
    print(f"enriched:     {stack.service.enriched_count}")
    print(f"tsdb points:  {stack.tsdb.total_points()}")
    print(f"map frames:   {map_view.frames_sent} "
          f"({channel.bytes_to_client} bytes over the WebSocket)")
    print(f"arc colours:  {map_view.color_histogram()}")
    print("--- dashboard (mean end-to-end latency by country pair) ---")
    dashboard = build_ruru_dashboard(interval_ns=episode.spec.traffic.duration_ns)
    for panel in dashboard.render(stack.tsdb):
        if panel.title.startswith("mean"):
            for label, value in sorted(panel.latest().items()):
                print(f"  {label}: {value:.1f} {panel.unit}")
    return 0


def cmd_detect(args) -> int:
    episode, _ = _run(args)
    _print_telemetry_summary(episode.stack.telemetry)
    events = episode.stack.anomaly.finish(now_ns=episode.spec.traffic.duration_ns)
    if not events:
        print("no anomalies detected")
        return 1
    for event in events:
        print(event)
    return 0


def cmd_export(args) -> int:
    # Self-monitoring series land in the same TSDB, so the line-protocol
    # export carries the pipeline's own health alongside the latencies.
    episode, _ = _run(args)
    stack = episode.stack

    count = 0
    with open(args.output, "w", encoding="utf-8") as handle:
        for line in stack.tsdb.dump_lines():
            handle.write(line + "\n")
            count += 1
    print(f"wrote {count} points to {args.output}")

    if args.grafana:
        dashboard = build_ruru_dashboard(
            interval_ns=episode.spec.traffic.duration_ns // 10 or NS_PER_S
        )
        with open(args.grafana, "w", encoding="utf-8") as handle:
            handle.write(export_grafana_json(dashboard, indent=2))
        print(f"wrote Grafana dashboard model to {args.grafana}")
    if args.grafana_selfmon:
        dashboard = build_selfmon_dashboard(
            interval_ns=max(1, int(args.telemetry_interval * NS_PER_S))
        )
        with open(args.grafana_selfmon, "w", encoding="utf-8") as handle:
            handle.write(
                export_grafana_json(dashboard, uid="ruru-selfmon", indent=2)
            )
        print(f"wrote self-monitoring Grafana dashboard to {args.grafana_selfmon}")
    return 0


def cmd_metrics(args) -> int:
    """Run the workload fully instrumented; print the exposition text."""
    slos = None
    if args.slo_config:
        with open(args.slo_config, "r", encoding="utf-8") as handle:
            slos = slos_from_dict(json.load(handle))
    episode, _ = _run(args)
    registry = episode.stack.telemetry.registry
    print(registry.exposition(), end="")
    results = episode.stack.slo_results if slos is None else evaluate_slos(registry, slos)
    _print_slos(results)
    if args.slo_gate and any(not result.ok for result in results):
        return 1
    return 0


def cmd_prof(args) -> int:
    """Profile every stage of the live stack over a workload.

    The profiler hangs off the stage graph, so the table below covers
    exactly the stages the command's tiers assemble — adding a stage to
    the topology adds a row here, with no extra wiring.
    """
    episode, _ = _run(args)
    stack, spec = episode.stack, episode.spec
    profiler = stack.telemetry.profiler
    print(profiler.render(top_calls=args.top))
    if stack.slo_results:
        _print_slos(stack.slo_results)
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(profiler.collapsed())
        print(f"wrote collapsed stacks to {args.collapsed} "
              f"(pipe into flamegraph.pl)")
    if args.json:
        document = {
            "meta": collect_meta(
                seed=spec.seed,
                config={"queues": spec.stack.queues, "rate": spec.traffic.rate,
                        "duration_s": spec.traffic.duration_s},
            ),
            "stage_profile": profiler.summary(),
            "batches": profiler.batches,
            "batches_sampled": profiler.batches_sampled,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote profile JSON to {args.json}")
    return 0


def cmd_perf(args) -> int:
    """Benchmark resultset archive tools (``ruru perf <compare|show>``)."""
    if args.perf_cmd == "show":
        resultset = load_resultset(args.file)
        meta = resultset.meta
        print(f"{resultset.name} @ {str(meta.get('git_rev', '?'))[:12]}")
        print(f"platform: {meta.get('platform', '?')}  "
              f"python {meta.get('python', '?')}  seed {meta.get('seed')}")
        for name in sorted(resultset.metrics):
            entry = resultset.metrics[name]
            unit = f" {entry['unit']}" if entry.get("unit") else ""
            print(f"  {name:<42} {entry['value']:,.3f}{unit}")
        return 0
    baseline = load_resultset(args.baseline)
    current = load_resultset(args.current)
    report = compare(baseline, current, threshold=args.threshold)
    print(report.render())
    return 0 if report.ok else 1


def _print_catalog(rows) -> None:
    """Aligned name/description columns, one optional detail line each.

    Shared by ``ruru chaos --list`` and ``ruru scenario list`` so the
    two catalogs read the same.
    """
    width = max((len(name) for name, _, _ in rows), default=0) + 2
    for name, description, detail in rows:
        print(f"{name:<{width}}{description}")
        if detail:
            print(f"{'':<{width}}[{detail}]")


def cmd_scenario(args) -> int:
    """The scenario harness (``ruru scenario <list|show|run|batch|compare>``)."""
    if args.scenario_cmd == "list":
        specs = load_library()
        rows = []
        for name in sorted(specs):
            spec = specs[name]
            details = [
                f"seed {spec.seed}",
                f"{spec.traffic.duration_s:g}s @ {spec.traffic.rate:g} flows/s",
            ]
            if spec.faults.active:
                details.append(f"faults: {spec.faults.profile}")
            if spec.anomalies:
                details.append(
                    "anomalies: " + ", ".join(w.kind for w in spec.anomalies)
                )
            rows.append((name, spec.description, "; ".join(details)))
        _print_catalog(rows)
        return 0

    if args.scenario_cmd == "show":
        spec = get_scenario(args.name)
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        path = baseline_path(spec.name)
        print(f"baseline: {path}"
              + ("" if os.path.exists(path) else " (missing)"))
        return 0

    if args.scenario_cmd == "run":
        spec = get_scenario(args.name)
        overrides = parse_override_args(args.set or [])
        result = run_scenario(
            spec,
            seed=args.seed,
            overrides=overrides,
            profile_stages=args.profile_stages,
        )
        print(result.render())
        if args.out:
            result.resultset.write(args.out)
            print(f"wrote resultset to {args.out}")
        return 0 if result.ok else 1

    if args.scenario_cmd == "batch":
        names = args.scenarios or sorted(load_library())
        variants = {"base": {}}
        for definition in args.variant or []:
            name, _, assignments = definition.partition(":")
            if not name or not assignments:
                raise SystemExit(
                    f"--variant wants NAME:key=value[,key=value], got {definition!r}"
                )
            variants[name] = parse_override_args(assignments.split(","))
        grid = GridSpec(
            scenarios=names,
            seeds=[int(seed) for seed in args.seeds.split(",")],
            variants=variants,
        )
        report = run_grid(
            grid,
            args.out,
            resume=not args.no_resume,
            max_cells=args.max_cells,
        )
        print(report.render())
        return 0 if report.ok else 1

    # compare: fresh runs against the committed baselines.
    names = args.names or sorted(load_library())
    regressed = []
    for name in names:
        spec = get_scenario(name)
        result = run_scenario(spec)
        path = baseline_path(spec.name, args.baseline_dir)
        if args.write:
            result.resultset.write(path)
            print(f"{name}: baseline written -> {path}")
            continue
        if not result.ok:
            print(f"--- {name}: FAILED correctness checks")
            for check in result.checks:
                if not check.ok:
                    print(f"  {check.render()}")
            regressed.append(name)
            continue
        baseline = load_resultset(path, lenient=True)
        report = compare_scenario(
            baseline, result.resultset, threshold=args.threshold
        )
        print(f"--- {name}: {'ok' if report.ok else 'REGRESSED'}")
        print(report.render())
        if not report.ok:
            regressed.append(name)
    if regressed:
        print("regressed scenarios: " + ", ".join(regressed))
        return 1
    return 0


#: The metric families ``chaos --metrics`` prints: the resilience
#: layer's in process, the shard supervisor's with ``--shards``.
RESILIENCE_FAMILIES = (
    "ruru_retry_total", "ruru_breaker_state", "ruru_breaker_opened_total", "ruru_dlq_depth",
    "ruru_dlq_total", "ruru_supervisor_restarts_total", "ruru_faults_injected_total",
    "ruru_degraded_published_total", "ruru_shard_restarts_total",
    "ruru_shard_lost_at_crash_total", "ruru_shard_rerouted_total", "ruru_shard_shed_total",
)


def _print_sharded(args, episode) -> int:
    report, kill_shard = episode.report, episode.spec.shard.kill_shard
    print(
        f"sharded run: {args.shards} worker process(es), "
        f"{report.ledger.ingested} packets"
        + (f", SIGKILL shard {kill_shard}" if kill_shard is not None else "")
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_chaos(args) -> int:
    if args.list:
        _print_catalog([
            (
                name,
                profile.description,
                ", ".join(
                    f"{key}={value}"
                    for key, value in profile.active_faults().items()
                ),
            )
            for name, profile in PROFILES.items()
        ])
        return 0
    episode, stop = _run(args, folds_errors=not args.shards)
    _interrupted(stop)
    if args.shards:
        code = _print_sharded(args, episode)
    else:
        print(render_chaos(episode))
        code = 0 if chaos_ok(episode) else 1
    if args.metrics:
        print("--- resilience metrics ---")
        for line in episode.telemetry.registry.exposition().splitlines():
            if any(line.startswith(name) or name in line for name in RESILIENCE_FAMILIES):
                print(line)
    return code


def cmd_dlq(args) -> int:
    episode, _ = _run(args, folds_errors=True)
    print(episode.stack.resilience.dlq.format_table(limit=args.limit))
    return 0 if chaos_ok(episode) else 1


def cmd_live(args) -> int:
    """Run the durable monitor; SIGINT/SIGTERM drain gracefully."""
    episode, stop = _run(args)
    if args.shards:
        _interrupted(stop)
        return _print_sharded(args, episode)
    _interrupted(stop, "shutdown requested")
    stack, report = episode.stack, episode.report
    print(report.render())
    ckpt = stack.checkpointer
    print(
        f"checkpoints: {ckpt.checkpoints_written} written "
        f"({ckpt.bytes_written} bytes) to {args.state_dir}; "
        f"wal: {stack.wal.appends} appends "
        f"({stack.tsdb.wal_bytes} bytes)"
    )
    return 0 if report.ok else 1


def cmd_recover(args) -> int:
    """Hot restart from a state directory, or run a recovery trial."""
    spec = _spec(args)
    if args.trial:
        trial = run_recovery_trial(spec, args.trial, hit=args.hit)
        print(trial.render())
        return 0 if trial.ok else 1

    stack = Episode(spec).stack
    report = recover_runtime(stack)
    print(report.render())
    if args.drain:
        drain = stack.drain()
        print(drain.render())
        return 0 if (report.ok and drain.ok) else 1
    return 0 if report.ok else 1


def cmd_query(args) -> int:
    db = TimeSeriesDatabase()
    with open(args.file, encoding="utf-8") as handle:
        loaded = db.load_lines(handle)
    result = execute_statement(db, args.query)
    if isinstance(result, list):  # SHOW statements return name lists
        for name in result:
            print(name)
        return 0 if result else 1
    if result.is_empty():
        print(f"(no rows; {loaded} points loaded)")
        return 1
    for key in result.group_keys():
        label = ", ".join(f"{tag}={value}" for tag, value in key) or "all"
        print(label)
        for window, value in result.groups[key]:
            print(f"  t={window / NS_PER_S:10.1f}s  {value:.3f}")
    return 0


def cmd_dump(args) -> int:
    from repro.net.dump import dump

    if args.pcap:
        with open_capture(args.pcap) as reader:
            for line in dump(reader, limit=args.count):
                print(line)
    else:
        spec = _spec(args)
        generator = build_scenario_generator(spec, spec.seed)
        for line in dump(generator.packets(), limit=args.count):
            print(line)
    return 0


def cmd_analyze(args) -> int:
    measurements = []
    episode, _ = _run(args, observers=[measurements.append])
    stack, duration_ns = episode.stack, episode.spec.traffic.duration_ns
    if not measurements:
        print("no measurements to analyze")
        return 1

    print(f"analyzed {len(measurements)} measurements\n")
    print("per-path mixture fits (top paths):")
    for path in analyze_paths(measurements, min_samples=25)[: args.top]:
        kind = "MULTIMODAL" if path.is_multimodal else "unimodal"
        print(f"  {path.pair[0]:>16} -> {path.pair[1]:<16} n={path.sample_count:<5}"
              f" median={path.median_ms:7.1f}ms [{kind}: {path.mode_summary()}]")

    half_ns = duration_ns // 2
    before = [m for m in measurements if m.timestamp_ns < half_ns]
    after = [m for m in measurements if m.timestamp_ns >= half_ns]
    drifts = compare_windows(before, after, min_samples=15)
    if drifts:
        print("\npopulation drift, first vs second half:")
        for drift in drifts[: args.top]:
            marker = "***" if drift.significant else "   "
            print(f"  {marker} {drift.pair[0]:>16} -> {drift.pair[1]:<16} "
                  f"KS={drift.ks:.2f} median {drift.before_median_ms:6.1f} -> "
                  f"{drift.after_median_ms:6.1f} ms")

    print("\nlatency heatmap:")
    heatmap = render_heatmap(
        stack.tsdb,
        window_ns=max(NS_PER_S, duration_ns // 12),
        buckets=LatencyBuckets(minimum_ms=1, maximum_ms=10_000, count=10),
    )
    print(heatmap.ascii())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """One subparser per :data:`COMMANDS` entry ("perf compare" under
    "perf"), each option as :data:`OPTIONS` declares it."""
    parser = argparse.ArgumentParser(
        prog="ruru",
        description="Ruru reproduction: passive flow-level latency measurement",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (help_text, base, options) in COMMANDS.items():
        *group, leaf = name.split()
        sub = groups[" ".join(group)].add_parser(leaf, help=help_text)
        if not options and base is None and not group:
            groups[name] = sub.add_subparsers(dest=f"{name}_cmd", required=True)
            continue
        defaults = _base_document(name) if base is not None else {}
        for option in options:
            flag, default = option if isinstance(option, tuple) else (option, None)
            path, definition = OPTIONS[flag]
            if isinstance(option, tuple):
                definition = {**definition, "default": default}
            elif path is not None:
                definition = {**definition, "default": _lookup(defaults, path)}
            sub.add_argument(flag, **definition)
        sub.set_defaults(func=globals()[f"cmd_{(group or [leaf])[0]}"])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, PcapError, LineProtocolError, QueryError, SnapshotError) as exc:
        # A flag, override or spec the run would not honour, or an input
        # file, query text or state directory it cannot read.
        print(f"ruru {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error. Detach
        # stdout so the interpreter's shutdown flush doesn't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
