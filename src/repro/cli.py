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

Any workload command also accepts ``--telemetry`` to enable the
:mod:`repro.obs` subsystem (metrics registry, per-stage timing, periodic
self-monitoring export into the TSDB) for that run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.frontend.dashboard import build_ruru_dashboard
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.net.pcap import PcapWriter
from repro.obs import Telemetry
from repro.stack import build_live_stack, build_measure_stack
from repro.tsdb.database import TimeSeriesDatabase
from repro.net.pcapng import PcapngWriter, open_capture
from repro.traffic.scenarios import (
    AucklandLaScenario,
    FirewallGlitchInjector,
    SynFloodInjector,
)

NS_PER_S = 1_000_000_000


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", type=float, default=30.0, help="seconds of traffic")
    parser.add_argument("--rate", type=float, default=50.0, help="mean flows per second")
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument("--queues", type=int, default=4, help="RSS receive queues")
    parser.add_argument(
        "--telemetry", action="store_true",
        help="enable the repro.obs telemetry subsystem for this run",
    )
    parser.add_argument(
        "--telemetry-interval", type=float, default=1.0,
        help="self-monitoring export interval in (virtual) seconds",
    )


def _make_telemetry(args) -> Optional[Telemetry]:
    """A Telemetry handle when --telemetry was given, else None."""
    return Telemetry() if args.telemetry else None


def _attach_exporter(telemetry: Optional[Telemetry], args, tsdb) -> None:
    if telemetry is not None:
        interval_ns = max(1, int(args.telemetry_interval * NS_PER_S))
        telemetry.export_to(tsdb, interval_ns=interval_ns)


def _print_telemetry_summary(telemetry: Optional[Telemetry]) -> None:
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


def _duration_ns(args) -> int:
    return int(args.duration * NS_PER_S)


def _print_slos(results) -> None:
    print("--- slo ---")
    for result in results:
        print(result.render())


def _build_generator(args, injectors=None):
    scenario = AucklandLaScenario(
        duration_ns=_duration_ns(args),
        mean_flows_per_s=args.rate,
        seed=args.seed,
        diurnal=False,
    )
    return scenario.build(injectors=injectors)


def _build_injectors(args, glitch_start_ns: int, glitch_window_ns: int) -> list:
    """The anomalies ``--glitch`` / ``--flood`` ask for (``detect`` and
    ``analyze`` place the glitch window differently)."""
    injectors = []
    if args.glitch:
        injectors.append(
            FirewallGlitchInjector(
                window_start_offset_ns=glitch_start_ns,
                window_ns=glitch_window_ns,
            )
        )
    if getattr(args, "flood", False):
        injectors.append(
            SynFloodInjector(
                flood_start_ns=_duration_ns(args) // 3,
                flood_duration_ns=5 * NS_PER_S,
            )
        )
    return injectors


def _build_live(args, telemetry=None, injectors=None, selfmon=True, **preset):
    """The wiring every live-preset command shares: workload generator
    → ``build_live_stack`` → (with telemetry) self-monitoring exports
    into the stack's own TSDB, so they ride any export of it."""
    stack = build_live_stack(
        generator=_build_generator(args, injectors=injectors),
        queues=args.queues,
        telemetry=telemetry,
        **preset,
    )
    if selfmon:
        _attach_exporter(telemetry, args, stack.tsdb)
    return stack


def cmd_generate(args) -> int:
    generator = _build_generator(args)
    count = 0
    writer_cls = PcapngWriter if args.format == "pcapng" else PcapWriter
    with writer_cls(args.output) as writer:
        for packet in generator.packets():
            writer.write(packet)
            count += 1
    print(f"wrote {count} packets from {generator.flows_generated} flows to {args.output}")
    return 0


def cmd_measure(args) -> int:
    telemetry = _make_telemetry(args)
    _attach_exporter(telemetry, args, TimeSeriesDatabase(name="ruru-selfmon"))
    stack = build_measure_stack(queues=args.queues, telemetry=telemetry)
    pipeline = stack.pipeline
    if args.pcap:
        with open_capture(args.pcap) as reader:
            stats = stack.run(reader).stats
    else:
        stats = stack.run(_build_generator(args).packets()).stats
    for record in pipeline.measurements[: args.show]:
        print(record)
    if len(pipeline.measurements) > args.show:
        print(f"... and {len(pipeline.measurements) - args.show} more")
    print("--- pipeline stats ---")
    for key, value in stats.summary(slo_results=stack.slo_results).items():
        print(f"{key:>20}: {value}")
    print(f"{'queue balance':>20}: "
          + ", ".join(f"{share:.2%}" for share in pipeline.queue_balance()))
    _print_telemetry_summary(telemetry)
    if telemetry is not None:
        print(telemetry.registry.exposition(), end="")
    return 0


def cmd_demo(args) -> int:
    telemetry = _make_telemetry(args)
    stack = _build_live(args, telemetry, frontend_hwm=10_000)
    channel = WebSocketChannel()
    map_view = LiveMapView(channel=channel)
    stack.graph.get("frontend").observers.append(map_view.observe)

    stats = stack.run().stats
    _print_telemetry_summary(telemetry)
    map_view.finish()

    print(f"measurements: {stats.measurements}")
    print(f"enriched:     {stack.service.enriched_count}")
    print(f"tsdb points:  {stack.tsdb.total_points()}")
    print(f"map frames:   {map_view.frames_sent} "
          f"({channel.bytes_to_client} bytes over the WebSocket)")
    print(f"arc colours:  {map_view.color_histogram()}")
    print("--- dashboard (mean end-to-end latency by country pair) ---")
    dashboard = build_ruru_dashboard(interval_ns=_duration_ns(args))
    for panel in dashboard.render(stack.tsdb):
        if panel.title.startswith("mean"):
            for label, value in sorted(panel.latest().items()):
                print(f"  {label}: {value:.1f} {panel.unit}")
    return 0


def cmd_detect(args) -> int:
    duration_ns = _duration_ns(args)
    injectors = _build_injectors(
        args, duration_ns // 2, min(10 * NS_PER_S, duration_ns // 4)
    )
    telemetry = _make_telemetry(args)
    stack = _build_live(args, telemetry, injectors, anomaly=True)
    stack.run()
    _print_telemetry_summary(telemetry)
    events = stack.anomaly.finish(now_ns=duration_ns)
    if not events:
        print("no anomalies detected")
        return 1
    for event in events:
        print(event)
    return 0


def cmd_export(args) -> int:
    # Self-monitoring series land in the same TSDB, so the line-protocol
    # export carries the pipeline's own health alongside the latencies.
    stack = _build_live(args, _make_telemetry(args))
    stack.run()

    count = 0
    with open(args.output, "w", encoding="utf-8") as handle:
        for line in stack.tsdb.dump_lines():
            handle.write(line + "\n")
            count += 1
    print(f"wrote {count} points to {args.output}")

    if args.grafana:
        from repro.frontend.grafana import export_grafana_json

        dashboard = build_ruru_dashboard(
            interval_ns=_duration_ns(args) // 10 or NS_PER_S
        )
        with open(args.grafana, "w", encoding="utf-8") as handle:
            handle.write(export_grafana_json(dashboard, indent=2))
        print(f"wrote Grafana dashboard model to {args.grafana}")
    if args.grafana_selfmon:
        from repro.frontend.grafana import build_selfmon_dashboard, export_grafana_json

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
    from repro.obs.slo import slos_from_dict

    telemetry = Telemetry()
    stack = _build_live(args, telemetry)
    if args.slo_config:
        with open(args.slo_config, "r", encoding="utf-8") as handle:
            stack.slos = slos_from_dict(json.load(handle))
    stack.run()
    print(telemetry.registry.exposition(), end="")
    _print_slos(stack.slo_results)
    if args.slo_gate and any(not result.ok for result in stack.slo_results):
        return 1
    return 0


def cmd_prof(args) -> int:
    """Profile every stage of the live stack over a workload.

    The profiler hangs off the stage graph, so the table below covers
    exactly the stages the live preset assembles — adding a stage to
    the topology adds a row here, with no extra wiring.
    """
    telemetry = Telemetry()
    profiler = telemetry.enable_profiler(sample_every=args.sample)
    stack = _build_live(args, telemetry, selfmon=False, frontend_hwm=10_000)
    stack.run()
    print(profiler.render(top_calls=args.top))
    if stack.slo_results:
        _print_slos(stack.slo_results)
    if args.collapsed:
        with open(args.collapsed, "w", encoding="utf-8") as handle:
            handle.write(profiler.collapsed())
        print(f"wrote collapsed stacks to {args.collapsed} "
              f"(pipe into flamegraph.pl)")
    if args.json:
        from repro.obs.bench import collect_meta

        document = {
            "meta": collect_meta(
                seed=args.seed,
                config={"queues": args.queues, "rate": args.rate,
                        "duration_s": args.duration},
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
    from repro.obs.bench import compare, load_resultset

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
    """The scenario harness (``ruru scenario <list|show|run|batch|compare>``);
    a bad spec is a usage error: one line on stderr, exit 2."""
    from repro.scenarios.spec import SpecError

    try:
        return _scenario(args)
    except SpecError as exc:
        print(f"ruru scenario: error: {exc}", file=sys.stderr)
        return 2


def _scenario(args) -> int:
    from repro.obs.bench import load_resultset
    from repro.scenarios import (
        GridSpec,
        baseline_path,
        compare_scenario,
        get_scenario,
        load_library,
        run_grid,
        run_scenario,
    )
    from repro.scenarios.spec import parse_override_args

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


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", default="lossy-mq",
        help="fault profile name (see --list)",
    )
    parser.add_argument("--seed", type=int, default=42, help="chaos run seed")
    parser.add_argument("--duration", type=float, default=8.0, help="seconds of traffic")
    parser.add_argument("--rate", type=float, default=40.0, help="mean flows per second")
    parser.add_argument("--queues", type=int, default=2, help="RSS receive queues")
    parser.add_argument(
        "--overload", action="store_true",
        help="enable closed-loop overload control (watermark sensing "
             "plus the priority shed ladder)",
    )


def _run_sharded(
    args, kill_shard=None, kill_at_batch=None, state_dir=None, fsync=False
) -> int:
    """Run a workload through the process-sharded runtime (``--shards``):
    streamed from the generator, stopped gracefully by SIGINT/SIGTERM."""
    from repro.core.feed import drive
    from repro.durability.signals import GracefulShutdown
    from repro.stack import build_sharded_runtime

    # The shard preset has no fault profile, overload ladder or TSDB:
    # a flag that configures one is a usage error, not a no-op.
    parser = args.shard_parser
    for flag, given in (
        ("--profile", args.profile != parser.get_default("profile")),
        ("--overload", args.overload),
        ("--retention", getattr(args, "retention", None) is not None),
    ):
        if given:
            parser.error(f"--shards does not take {flag}")

    runtime = build_sharded_runtime(
        shards=args.shards,
        state_dir=state_dir,
        policy=args.shard_policy,
        fsync=fsync,
    )
    if kill_shard is not None:
        runtime.schedule_kill(
            kill_shard, at_seq=6 if kill_at_batch is None else kill_at_batch
        )
    try:
        with GracefulShutdown() as stop:
            drive(runtime.offer, _build_generator(args).packets(), stop=stop.requested)
            report = runtime.drain()
    finally:
        runtime.close()
    if stop.requested():
        print(f"[{stop.signal_name}] interrupted — drained gracefully")
    print(
        f"sharded run: {args.shards} worker process(es), "
        f"{report.ledger.ingested} packets"
        + (f", SIGKILL shard {kill_shard}" if kill_shard is not None else "")
    )
    print(report.render())
    return 0 if report.ok else 1


def _add_shard_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--shards", type=int, default=0,
        help="run through the process-sharded runtime with this many "
             "worker processes (0 = in-process, the default)",
    )
    parser.add_argument(
        "--shard-policy", default="protect-handshakes",
        choices=("protect-handshakes", "reroute-all"),
        help="down-shard traffic policy",
    )
    # Where _run_sharded reports a misuse of --shards, and reads this
    # command's own --profile default from.
    parser.set_defaults(shard_parser=parser)


def _run_chaos(args, shutdown_flag=None):
    from repro.faults import run_chaos

    return run_chaos(
        args.profile,
        seed=args.seed,
        shutdown_flag=shutdown_flag,
        duration_s=args.duration,
        rate=args.rate,
        queues=args.queues,
        overload=args.overload,
    )


def cmd_chaos(args) -> int:
    from repro.faults import PROFILES

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
    if args.shards:
        return _run_sharded(
            args,
            kill_shard=args.kill_shard,
            kill_at_batch=args.kill_at_batch,
        )
    from repro.durability.signals import GracefulShutdown

    with GracefulShutdown() as stop:
        report = _run_chaos(args, shutdown_flag=stop.requested)
    if stop.requested():
        print(f"[{stop.signal_name}] interrupted — drained gracefully")
    print(report.render())
    if args.metrics:
        print("--- resilience metrics ---")
        wanted = (
            "ruru_retry_total",
            "ruru_breaker_state",
            "ruru_breaker_opened_total",
            "ruru_dlq_depth",
            "ruru_dlq_total",
            "ruru_supervisor_restarts_total",
            "ruru_faults_injected_total",
            "ruru_degraded_published_total",
        )
        for line in report.stack.telemetry.registry.exposition().splitlines():
            if any(line.startswith(name) or name in line for name in wanted):
                print(line)
    return 0 if report.ok else 1


def cmd_dlq(args) -> int:
    report = _run_chaos(args)
    print(report.stack.resilience.dlq.format_table(limit=args.limit))
    return 0 if report.ok else 1


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state-dir", default="ruru-state",
        help="directory for checkpoints and the TSDB write-ahead log",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=1.0,
        help="checkpoint cadence in (virtual) seconds",
    )
    parser.add_argument(
        "--keep-checkpoints", type=int, default=2,
        help="checkpoints retained (older ones are pruned)",
    )
    parser.add_argument(
        "--retention", type=float, default=None,
        help="TSDB retention window in seconds (default: unlimited)",
    )
    parser.add_argument(
        "--fsync-wal", action="store_true",
        help="fsync WAL appends and checkpoint writes "
             "(slower, strictest durability)",
    )


def _durable_knobs(args) -> dict:
    """What ``live``, ``recover`` and a recovery trial all pass on."""
    return dict(
        profile=args.profile,
        seed=args.seed,
        duration_s=args.duration,
        rate=args.rate,
        queues=args.queues,
        checkpoint_interval_ns=max(1, int(args.checkpoint_interval * NS_PER_S)),
        retention_ns=(
            None if args.retention is None else max(1, int(args.retention * NS_PER_S))
        ),
    )


def _make_durable_stack(args):
    from repro.stack import build_durable_stack

    return build_durable_stack(
        args.state_dir,
        keep_checkpoints=args.keep_checkpoints,
        fsync_wal=args.fsync_wal,
        overload=args.overload,
        **_durable_knobs(args),
    )


def cmd_live(args) -> int:
    """Run the durable monitor; SIGINT/SIGTERM drain gracefully."""
    if args.shards:
        return _run_sharded(
            args, state_dir=args.state_dir, fsync=args.fsync_wal
        )
    from repro.durability.signals import GracefulShutdown

    stack = _make_durable_stack(args)
    with GracefulShutdown() as stop:
        report = stack.run(shutdown_flag=stop.requested)
    if stop.requested():
        print(f"[{stop.signal_name}] shutdown requested — drained gracefully")
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
    if args.trial:
        from repro.durability.harness import run_recovery_trial

        trial = run_recovery_trial(
            args.state_dir, args.trial, hit=args.hit, **_durable_knobs(args)
        )
        print(trial.render())
        return 0 if trial.ok else 1

    from repro.durability.recovery import recover_runtime

    stack = _make_durable_stack(args)
    report = recover_runtime(stack)
    print(report.render())
    if args.drain:
        drain = stack.drain()
        print(drain.render())
        return 0 if (report.ok and drain.ok) else 1
    return 0 if report.ok else 1


def cmd_query(args) -> int:
    from repro.tsdb.ql import execute_statement

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
        generator = _build_generator(args)
        for line in dump(generator.packets(), limit=args.count):
            print(line)
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis.report import analyze_paths, compare_windows
    from repro.frontend.heatmap import LatencyBuckets, render_heatmap

    duration_ns = _duration_ns(args)
    injectors = _build_injectors(
        args, duration_ns * 2 // 3, max(NS_PER_S, duration_ns // 8)
    )
    stack = _build_live(args, injectors=injectors, frontend_hwm=1 << 20)
    measurements = []
    stack.graph.get("frontend").observers.append(measurements.append)
    stack.run()
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
    parser = argparse.ArgumentParser(
        prog="ruru",
        description="Ruru reproduction: passive flow-level latency measurement",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_generate = subparsers.add_parser("generate", help="write a synthetic workload pcap")
    _add_workload_args(p_generate)
    p_generate.add_argument("--output", default="ruru-trace.pcap")
    p_generate.add_argument(
        "--format", choices=["pcap", "pcapng"], default="pcap",
        help="capture file format",
    )
    p_generate.set_defaults(func=cmd_generate)

    p_measure = subparsers.add_parser("measure", help="measure latency over a trace")
    _add_workload_args(p_measure)
    p_measure.add_argument("--pcap", help="trace to replay (generates one if omitted)")
    p_measure.add_argument("--show", type=int, default=10, help="records to print")
    p_measure.set_defaults(func=cmd_measure)

    p_demo = subparsers.add_parser("demo", help="full pipeline with analytics + frontends")
    _add_workload_args(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_detect = subparsers.add_parser("detect", help="run anomaly detection scenarios")
    _add_workload_args(p_detect)
    p_detect.add_argument("--glitch", action="store_true", help="inject a firewall glitch")
    p_detect.add_argument("--flood", action="store_true", help="inject a SYN flood")
    p_detect.set_defaults(func=cmd_detect)

    p_export = subparsers.add_parser(
        "export", help="run a workload and export the TSDB as line protocol"
    )
    _add_workload_args(p_export)
    p_export.add_argument("--output", default="ruru-measurements.lp")
    p_export.add_argument(
        "--grafana", help="also write the Grafana dashboard JSON here"
    )
    p_export.add_argument(
        "--grafana-selfmon",
        help="also write the self-monitoring Grafana dashboard JSON here",
    )
    p_export.set_defaults(func=cmd_export)

    p_metrics = subparsers.add_parser(
        "metrics",
        help="run a workload with telemetry and print the Prometheus exposition",
    )
    _add_workload_args(p_metrics)
    p_metrics.add_argument(
        "--slo-gate", action="store_true",
        help="exit non-zero when any SLO is violated",
    )
    p_metrics.add_argument(
        "--slo-config",
        help="JSON file of declarative SLOs (replaces the default set)",
    )
    p_metrics.set_defaults(func=cmd_metrics)

    p_prof = subparsers.add_parser(
        "prof",
        help="per-stage profile of the live stack (wall/cpu/virtual, "
             "sampled call attribution, collapsed-stack export)",
    )
    _add_workload_args(p_prof)
    p_prof.add_argument(
        "--sample", type=int, default=16,
        help="attribute calls on every Nth feed batch (0 disables)",
    )
    p_prof.add_argument("--top", type=int, default=10,
                        help="hot call sites to print")
    p_prof.add_argument(
        "--collapsed",
        help="write flamegraph-compatible collapsed stacks to this file",
    )
    p_prof.add_argument("--json", help="write the profile summary JSON here")
    p_prof.set_defaults(func=cmd_prof)

    p_perf = subparsers.add_parser(
        "perf", help="benchmark resultset archive: compare or show runs"
    )
    perf_sub = p_perf.add_subparsers(dest="perf_cmd", required=True)
    p_compare = perf_sub.add_parser(
        "compare", help="diff two resultsets with noise-aware thresholds"
    )
    p_compare.add_argument("baseline", help="baseline resultset JSON")
    p_compare.add_argument("current", help="current resultset JSON")
    p_compare.add_argument(
        "--threshold", type=float, default=0.15,
        help="tolerated fractional change before a delta is real",
    )
    p_compare.set_defaults(func=cmd_perf)
    p_show = perf_sub.add_parser("show", help="print one resultset")
    p_show.add_argument("file", help="resultset JSON")
    p_show.set_defaults(func=cmd_perf)

    p_scenario = subparsers.add_parser(
        "scenario",
        help="declarative scenario harness: list/show/run/batch/compare",
    )
    scenario_sub = p_scenario.add_subparsers(dest="scenario_cmd", required=True)

    p_sc_list = scenario_sub.add_parser(
        "list", help="list the scenario library with descriptions"
    )
    p_sc_list.set_defaults(func=cmd_scenario)

    p_sc_show = scenario_sub.add_parser(
        "show", help="print one scenario spec as JSON"
    )
    p_sc_show.add_argument("name", help="library name or spec file path")
    p_sc_show.set_defaults(func=cmd_scenario)

    p_sc_run = scenario_sub.add_parser(
        "run", help="run one scenario through the stage-graph runtime"
    )
    p_sc_run.add_argument("name", help="library name or spec file path")
    p_sc_run.add_argument("--seed", type=int, help="override the spec's seed")
    p_sc_run.add_argument(
        "--set", action="append", metavar="KEY=VALUE",
        help="dotted-path spec override, e.g. traffic.rate=80 (repeatable)",
    )
    p_sc_run.add_argument(
        "--profile-stages", action="store_true",
        help="archive the per-stage timing summary with the resultset",
    )
    p_sc_run.add_argument("--out", help="write the resultset JSON here")
    p_sc_run.set_defaults(func=cmd_scenario)

    p_sc_batch = scenario_sub.add_parser(
        "batch", help="run a resumable (scenario x seed x override) grid"
    )
    p_sc_batch.add_argument(
        "scenarios", nargs="*",
        help="scenario names (default: the whole library)",
    )
    p_sc_batch.add_argument(
        "--seeds", default="7", help="comma-separated seed axis"
    )
    p_sc_batch.add_argument(
        "--variant", action="append", metavar="NAME:KEY=VALUE[,KEY=VALUE]",
        help="named override variant added to the base grid (repeatable)",
    )
    p_sc_batch.add_argument(
        "--out", default="ruru-grid", help="archive root directory"
    )
    p_sc_batch.add_argument(
        "--no-resume", action="store_true",
        help="re-run every cell even when its archive exists",
    )
    p_sc_batch.add_argument(
        "--max-cells", type=int,
        help="stop after this many executed cells (interruption testing)",
    )
    p_sc_batch.set_defaults(func=cmd_scenario)

    p_sc_compare = scenario_sub.add_parser(
        "compare",
        help="run scenarios fresh and gate against the committed baselines",
    )
    p_sc_compare.add_argument(
        "names", nargs="*",
        help="scenario names (default: the whole library)",
    )
    p_sc_compare.add_argument(
        "--baseline-dir",
        help="baseline directory (default: benchmarks/baselines/scenarios)",
    )
    p_sc_compare.add_argument(
        "--threshold", type=float, default=0.15,
        help="tolerated fractional change for non-exact metrics",
    )
    p_sc_compare.add_argument(
        "--write", action="store_true",
        help="write fresh baselines instead of comparing",
    )
    p_sc_compare.set_defaults(func=cmd_scenario)

    p_dump = subparsers.add_parser(
        "dump", help="print packets tcpdump-style"
    )
    _add_workload_args(p_dump)
    p_dump.add_argument("--pcap", help="capture to read (generates if omitted)")
    p_dump.add_argument("--count", type=int, default=20, help="lines to print")
    p_dump.set_defaults(func=cmd_dump)

    p_analyze = subparsers.add_parser(
        "analyze", help="mixture fits, drift and heatmap over a workload"
    )
    _add_workload_args(p_analyze)
    p_analyze.add_argument("--glitch", action="store_true",
                           help="inject a firewall glitch to analyze")
    p_analyze.add_argument("--top", type=int, default=8,
                           help="paths to show per section")
    p_analyze.set_defaults(func=cmd_analyze)

    p_chaos = subparsers.add_parser(
        "chaos",
        help="replay a workload under a fault profile and check invariants",
    )
    _add_chaos_args(p_chaos)
    _add_shard_args(p_chaos)
    p_chaos.add_argument(
        "--kill-shard", type=int, default=None, metavar="S",
        help="with --shards: SIGKILL this worker shard mid-run and "
             "check recovery + ledger conservation",
    )
    p_chaos.add_argument(
        "--kill-at-batch", type=int, default=None, metavar="N",
        help="batch sequence number at which the kill fires (default 6)",
    )
    p_chaos.add_argument(
        "--list", action="store_true", help="list fault profiles and exit"
    )
    p_chaos.add_argument(
        "--metrics", action="store_true",
        help="also print the resilience metric families",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_dlq = subparsers.add_parser(
        "dlq", help="inspect the dead-letter queue after a chaos run"
    )
    _add_chaos_args(p_dlq)
    p_dlq.add_argument("--limit", type=int, default=20, help="letters to show")
    p_dlq.set_defaults(func=cmd_dlq)

    p_live = subparsers.add_parser(
        "live",
        help="run the durable monitor with checkpoints, WAL and graceful drain",
    )
    _add_chaos_args(p_live)
    _add_shard_args(p_live)
    _add_durability_args(p_live)
    p_live.set_defaults(func=cmd_live, profile="clean")

    p_recover = subparsers.add_parser(
        "recover",
        help="hot-restart from a state directory (or run a recovery trial)",
    )
    _add_chaos_args(p_recover)
    _add_durability_args(p_recover)
    p_recover.add_argument(
        "--drain", action="store_true",
        help="after recovering, drain gracefully to a clean checkpoint",
    )
    p_recover.add_argument(
        "--trial", metavar="CRASH_POINT",
        help="instead: run a kill-anywhere trial crashing at this point",
    )
    p_recover.add_argument(
        "--hit", type=int, default=3,
        help="which pass over the crash point fires the trial's crash",
    )
    p_recover.set_defaults(func=cmd_recover, profile="clean")

    p_query = subparsers.add_parser(
        "query", help="run an InfluxQL-style query against an export"
    )
    p_query.add_argument("--file", required=True, help="line-protocol file")
    p_query.add_argument("query", help="e.g. \"SELECT mean(total_ms) FROM latency\"")
    p_query.set_defaults(func=cmd_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error. Detach
        # stdout so the interpreter's shutdown flush doesn't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
