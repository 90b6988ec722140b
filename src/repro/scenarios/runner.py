"""Execute one scenario spec: the one episode and the one scenario runner.

:class:`Episode` is the only place a spec becomes a running system:
the spec's traffic axis becomes a generator, its tiers become a
:class:`~repro.stack.builder.StackBuilder` chain (or, when the spec's
``[shard]`` table asks for worker processes, a sharded runtime), and
:meth:`Episode.run` is the driver of :mod:`repro.core.feed` then the
target's ``drain``. Everything that runs a stack is an episode plus a
reading of what it left behind: an in-process run's books are
:attr:`Episode.counts` (the drain report's
:attr:`~repro.stack.builder.DrainReport.counts`), which
:func:`run_scenario` records into one
:class:`repro.obs.bench.Resultset` beside its checks, and which a
``ruru`` command renders.

Everything the resultset's ``metrics`` section carries is
*deterministic*: same (spec, seed) → byte-identical metrics and
anomaly-event sequences. Wall-clock observations (elapsed seconds,
packets/s) land in the metadata block instead, stamped next to the git
revision and platform, so two runs of the same cell diff clean.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Optional

from repro.core.config import PipelineConfig
from repro.core.feed import drive
from repro.obs import Telemetry
from repro.obs.bench import Resultset, collect_meta
from repro.overload import CLASSES, HANDSHAKE, PAYLOAD
from repro.resilience import Ledger
from repro.scenarios.spec import EVENT_KINDS, ScenarioSpec, SpecError, apply_overrides
from repro.stack.builder import StackBuilder, build_sharded_runtime, count_books
from repro.traffic.diurnal import DiurnalProfile
from repro.traffic.generator import GeneratorConfig, TrafficGenerator
from repro.traffic.endpoints import EndpointPopulation
from repro.tsdb.database import TimeSeriesDatabase

NS_PER_S = 1_000_000_000


def _ns(seconds: float) -> int:
    return int(seconds * NS_PER_S)


def build_scenario_generator(
    spec: ScenarioSpec, seed: int
) -> TrafficGenerator:
    """The spec's traffic axis as a configured generator."""
    traffic = spec.traffic
    profile = DiurnalProfile() if traffic.diurnal else DiurnalProfile.flat()
    config = GeneratorConfig(
        duration_ns=traffic.duration_ns,
        start_ns=traffic.start_ns,
        mean_flows_per_s=traffic.rate,
        seed=seed,
        tap_city=traffic.tap_city,
        profile=profile,
        handshake_only_fraction=traffic.handshake_only_fraction,
        rst_fraction=traffic.rst_fraction,
        ipv6_fraction=traffic.ipv6_fraction,
        max_data_exchanges=traffic.max_data_exchanges,
    )
    injectors = [
        window.build_injector(traffic) for window in spec.anomalies
    ]
    return TrafficGenerator(
        config=config,
        population=EndpointPopulation(),
        injectors=injectors,
    )


class Episode:
    """One run of a spec: its traffic and its target, built once.

    Construction builds the generator and the target — the in-process
    :attr:`stack`, or the sharded :attr:`runtime` — and a spec the
    builder refuses is a :class:`SpecError`. A ``crash_schedule`` arms
    the durable tier's crash points (the recovery harness's victim).
    A durable tier with no ``state_dir`` runs in a fresh temporary
    directory, :attr:`temp_dir`, which its creator removes.
    :meth:`run` drives and drains; an exception it meets is kept on
    :attr:`error` for the fold to judge.
    """

    def __init__(self, spec: ScenarioSpec, seed: Optional[int] = None, crash_schedule=None):
        self.spec = spec
        self.seed = spec.seed if seed is None else int(seed)
        self.generator = build_scenario_generator(spec, self.seed)
        self.stack = self.runtime = None
        self.report = None  # the DrainReport, or the ShardRunReport
        self.error: Optional[Exception] = None
        self.elapsed_s = 0.0
        self.temp_dir: Optional[str] = None
        if spec.shard.enabled:
            self.telemetry = Telemetry()
            self.runtime = self._build_runtime()
        else:
            self.stack = self._build_stack(crash_schedule)
            self.telemetry = self.stack.telemetry

    def _build_stack(self, crash_schedule):
        spec, shape = self.spec, self.spec.stack
        builder = StackBuilder().generator(self.generator).queues(shape.queues)
        if shape.queue_capacity is not None:
            builder.pipeline_config(
                PipelineConfig(num_queues=shape.queues, queue_capacity=shape.queue_capacity)
            )
        durable = spec.durable
        state_dir = durable.state_dir
        if state_dir is None and "durable" in spec.tiers:
            state_dir = self.temp_dir = tempfile.mkdtemp(prefix="ruru-state-")
        calls = {
            "analytics": builder.analytics,
            "faults": lambda: builder.faults(spec.faults.resolve(), seed=self.seed),
            "durable": lambda: builder.durable(
                state_dir,
                checkpoint_interval_ns=_ns(durable.checkpoint_interval_s),
                keep_checkpoints=durable.keep_checkpoints,
                retention_ns=None if durable.retention_s is None else _ns(durable.retention_s),
                crash_schedule=crash_schedule,
                fsync_wal=durable.fsync_wal,
            ),
            "overload": lambda: builder.overload(**{
                knob: getattr(spec.overload, knob)
                for knob in ("low", "high", "up_dwell_ms", "down_dwell_ms",
                             "sampled_modulus", "snap_len")
            }),
            "telemetry": lambda: builder.telemetry(Telemetry()),
            "anomaly": builder.anomaly,
            "topk": lambda: builder.topk(capacity=shape.topk),
            "frontend": lambda: builder.frontend(hwm=shape.frontend_hwm),
        }
        for tier in spec.tiers:
            calls[tier]()
        try:
            stack = builder.build()
            telemetry, interval_s = stack.telemetry, spec.telemetry.interval_s
            if telemetry is not None:
                telemetry.enable_profiler(spec.telemetry.sample_every)
            if telemetry is not None and interval_s is not None:
                store = stack.tsdb if stack.tsdb is not None else TimeSeriesDatabase()
                telemetry.export_to(store, interval_ns=_ns(interval_s))
        except ValueError as exc:  # a tier without its input, a bad setting
            if self.temp_dir is not None:  # no episode is left to remove it
                shutil.rmtree(self.temp_dir)
            raise SpecError(str(exc)) from None
        return stack

    def _build_runtime(self):
        """One OS process per RX queue, with an optional scheduled SIGKILL.
        Dispatch is lock-step and a dead shard rejoins by virtual round,
        so every count the run produces is a function of (spec, seed)."""
        shard = self.spec.shard
        runtime = build_sharded_runtime(
            shards=shard.shards,
            telemetry=self.telemetry,
            config=PipelineConfig(num_queues=shard.shards),
            policy=shard.policy,
            checkpoint_every_batches=shard.checkpoint_every_batches,
            restart_delay_batches=shard.restart_delay_batches,
            max_restarts_per_shard=shard.max_restarts,
        )
        if shard.kill_shard is not None:
            runtime.schedule_kill(shard.kill_shard, at_seq=shard.kill_at_batch)
        return runtime

    def run(
        self,
        packets: Optional[Iterable] = None,
        stop=None,
        observers: Iterable = (),
    ) -> "Episode":
        """Feed the target, then drain it.

        Args:
            packets: a capture to replay instead of the spec's traffic.
            stop: zero-arg callable polled between batches; truthy →
                stop feeding and drain (the SIGINT/SIGTERM path).
            observers: callables handed every measurement the frontend
                receives (the live map, a capture list).
        """
        if self.stack is not None and self.stack.checkpointer is not None:
            _refuse_a_used_state_dir(self.stack)
        if self.stack is not None and observers:
            self.stack.graph.get("frontend").observers.extend(observers)
        started = time.perf_counter()
        try:
            if self.runtime is not None:
                try:
                    drive(
                        self.runtime.offer,
                        self.generator.packets() if packets is None else packets,
                        size=self.spec.shard.batch_size,
                        stop=stop,
                    )
                    self.report = self.runtime.drain()
                finally:
                    self.runtime.close()
            else:
                window_ms = self.spec.stack.feed_window_ms
                self.report = self.stack.run(
                    packets,
                    shutdown_flag=stop,
                    window_ns=None if window_ms is None else int(window_ms * 1_000_000),
                )
        except Exception as exc:  # noqa: BLE001 — the fold judges it
            self.error = exc
        self.elapsed_s = time.perf_counter() - started
        return self

    @property
    def counts(self) -> Dict[str, int]:
        """The in-process run's books: its drain report's, or — when the
        run raised before its drain — the stack's as the error left it."""
        if self.report is not None:
            return self.report.counts
        return count_books(self.stack)


def _refuse_a_used_state_dir(stack) -> None:
    """A fresh run starts on an empty state dir. One that holds a
    checkpoint or WAL frames is a run to resume: feeding on top of it
    would leave two runs' checkpoints and frames side by side, and a
    recovery would resume whichever checkpoint numbers higher."""
    wal = stack.wal.path
    if stack.checkpointer.list_checkpoints() or (
        os.path.exists(wal) and os.path.getsize(wal) > 0
    ):
        raise SpecError(
            f"durable.state_dir {stack.state_dir!r} already holds a run; "
            f"resume it with `ruru recover --state-dir {stack.state_dir}` "
            "or name an empty directory"
        )


@dataclass
class Check:
    """One correctness gate the run either held or violated."""

    name: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        return f"[{'ok' if self.ok else 'FAIL'}] {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


@dataclass
class ScenarioResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    seed: int
    resultset: Resultset
    events: List[str] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def metric(self, name: str) -> Optional[float]:
        entry = self.resultset.metrics.get(name)
        return None if entry is None else entry["value"]

    def render(self) -> str:
        lines = [
            f"scenario: {self.spec.name!r} seed={self.seed}",
            f"  {self.spec.description}",
            f"  faults: {self.spec.faults.profile}"
            + (" (+overrides)" if self.spec.faults.overrides else ""),
            f"  flows={self.metric('scenario.flows'):,.0f} "
            f"packets={self.metric('scenario.packets_offered'):,.0f} "
            f"measurements={self.metric('scenario.measurements'):,.0f}",
        ]
        if self.metric("ledger.ingested") is not None:
            lines.append(
                f"  ledger: ingested={self.metric('ledger.ingested'):,.0f} "
                f"processed={self.metric('ledger.processed'):,.0f} "
                f"dropped={self.metric('ledger.dropped'):,.0f} "
                f"deadlettered={self.metric('ledger.deadlettered'):,.0f} "
                f"(balance {self.metric('ledger.balance'):+,.0f})"
            )
        if self.metric("oledger.balance") is not None:
            lines.append(
                f"  overload: level_max={self.metric('overload.level_max'):.0f} "
                f"transitions={self.metric('overload.transitions'):.0f} "
                f"shed payload={self.metric('overload.shed.payload'):,.0f} "
                f"handshake={self.metric('overload.shed.handshake'):,.0f} "
                f"(oledger balance {self.metric('oledger.balance'):+,.0f})"
            )
        wall = self.resultset.meta.get("wall", {})
        if wall:
            lines.append(
                f"  wall: {wall.get('elapsed_s', 0):.2f}s "
                f"({wall.get('packets_per_s', 0):,.0f} packets/s)"
            )
        lines.append("anomaly events:")
        if self.events:
            lines.extend(f"  {text}" for text in self.events)
        else:
            lines.append("  (none)")
        lines.append("checks:")
        lines.extend(f"  {check.render()}" for check in self.checks)
        lines.append("verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def _fold_ledger(exact, ledger: Ledger) -> None:
    for term in ("ingested", "processed", "dropped", "deadlettered", "balance"):
        exact(f"ledger.{term}", getattr(ledger, term))


def _conserves(name: str, ledger: Ledger) -> Check:
    return Check(name, ledger.ok, "" if ledger.ok else str(ledger))


#: The units the books' first terms have always been archived with.
UNITS = {
    "scenario.packets_offered": "packets",
    "scenario.measurements": "records",
    "scenario.enriched": "records",
    "scenario.tsdb_points": "points",
}


def _frame_shed(counts: Dict[str, int], klass: str) -> int:
    """Frames of *klass* shed anywhere (MQ-stage sheds are records)."""
    return counts[f"overload.shed.{klass}"] - counts.get(f"overload.shed.{klass}.mq", 0)


def _fold_stack(episode: Episode, exact, resultset: Resultset, profile_stages):
    """The in-process target's metrics — its books, every term as an
    exact metric — plus its anomaly events and its checks."""
    spec, stack, counts = episode.spec, episode.stack, episode.counts
    for name, value in counts.items():
        exact(name, value, unit=UNITS.get(name, ""))
    events = []
    if stack.anomaly is not None:
        end_ns = spec.traffic.start_ns + spec.traffic.duration_ns
        events = stack.anomaly.finish(now_ns=max(end_ns, stack.now_ns))
    event_counts = {kind: 0 for kind in EVENT_KINDS}
    for event in events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1
    exact("events.total", len(events), unit="events")
    for kind in sorted(event_counts):
        exact(f"events.{kind}", event_counts[kind], unit="events")
    if profile_stages and stack.telemetry is not None:
        resultset.stage_profile = dict(stack.telemetry.profiler.summary())
    if stack.overload is not None:
        resultset.meta["overload_transitions"] = [
            str(transition) for transition in stack.overload.transitions
        ]
    return events, _stack_checks(spec, counts)


def _stack_checks(spec: ScenarioSpec, counts: Dict[str, int]) -> List[Check]:
    """The in-process run's conservation and shed gates, off its books."""
    checks = []
    ledger = Ledger.from_books(counts) if "ledger.ingested" in counts else None
    if ledger is not None:
        checks.append(_conserves("ledger-conserves", ledger))
    if "overload.level" not in counts:
        return checks
    # Frame-level sheds split into rejected-at-offer frames
    # (packets_shed) and queued-then-evicted victims
    # (ring_displacements); MQ-stage sheds are records, not frames.
    frame_shed = sum(_frame_shed(counts, klass) for klass in CLASSES)
    queued, shed = counts["pipeline.packets_queued"], counts["pipeline.packets_shed"]
    displaced = counts["overload.ring_displacements"]
    attributed = shed + displaced
    packet_balance = counts["scenario.packets_offered"] - (
        queued + counts["pipeline.nic_drops"] + shed
    )
    queued_balance = queued - (counts["pipeline.packets_processed"] + displaced)
    checks.append(
        Check(
            "packet-ledger-conserves",
            packet_balance == 0
            and queued_balance == 0
            and attributed == frame_shed,
            f"offer balance {packet_balance:+d}, "
            f"queue balance {queued_balance:+d}, "
            f"shed {attributed} vs attributed {frame_shed}",
        )
    )
    if ledger is not None:
        oledger = Ledger.from_parts(counts["overload.mq_offered"], ledger, counts["oledger.shed"])
        checks.append(_conserves("overload-ledger-conserves", oledger))
    gates = (
        ("handshake-shed-bounded", HANDSHAKE, spec.overload.handshake_shed_max_ratio, "<="),
        ("payload-shed-engaged", PAYLOAD, spec.overload.payload_shed_min_ratio, ">="),
    )
    for name, klass, bound, sense in gates:
        if bound is None:
            continue
        offered = counts[f"overload.offered.{klass}"]
        ratio = _frame_shed(counts, klass) / offered if offered else 0.0
        held = ratio <= bound if sense == "<=" else ratio >= bound
        checks.append(Check(name, held, f"shed ratio {ratio:.4f}, want {sense} {bound}"))
    return checks


def _fold_shards(episode: Episode, exact, resultset: Resultset, profile_stages):
    """The process-topology target's metrics and checks. Stage
    profiling does not apply: the stages run in the children."""
    shard, runtime, report = episode.spec.shard, episode.runtime, episode.report
    exact("scenario.packets_offered", runtime.ingested, unit="packets")
    if report is None:
        return [], []
    # Heartbeat counts are wall-clock coupled; everything recorded
    # as a metric is a function of (spec, seed) alone.
    resultset.meta["shard"] = {
        "states": report.states,
        "restarts": report.restarts,
        "heartbeats_seen": report.heartbeats_seen,
        "rounds": report.rounds,
    }
    ledger = report.ledger
    # The canonical names the render/grid tooling reads, then the
    # shard-only terms.
    exact("scenario.measurements", report.records["emitted"], unit="records")
    _fold_ledger(exact, ledger)
    exact("shard.ledger.shed", ledger.shed)
    exact("shard.ledger.lost_at_crash", ledger.lost_at_crash)
    exact("shard.rerouted", report.rerouted_packets, unit="packets")
    exact("shard.restarts", report.restarts, unit="restarts")
    for klass in sorted(report.shed_by_class):
        exact(f"shard.shed.{klass}", report.shed_by_class[klass])
    exact("shard.records.delivered", report.records["delivered"], unit="records")
    for name in sorted(report.shards):
        entry = report.shards[name]
        for term in ("dispatched", "acked", "lost_at_crash", "restarts"):
            exact(f"shard.{name}.{term}", entry[term])

    checks = [
        _conserves("shard-ledger-conserves", ledger),
        Check(
            "shard-reconciliation",
            all(ok for _, ok, _ in report.reconciliation),
            "; ".join(report.failed_checks()),
        ),
    ]
    if shard.kill_shard is not None:
        victim = report.shards.get(f"shard-{shard.kill_shard}", {})
        checks.append(
            Check(
                "shard-recovered",
                victim.get("restarts", 0) >= 1
                and victim.get("state") == "drained",
                f"victim state={victim.get('state')!r} "
                f"restarts={victim.get('restarts')}",
            )
        )
        checks.append(
            Check(
                "crash-was-charged",
                ledger.lost_at_crash > 0,
                f"lost_at_crash={ledger.lost_at_crash}",
            )
        )
    return [], checks


def run_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    overrides: Optional[Dict[str, object]] = None,
    cell: Optional[Dict[str, object]] = None,
    profile_stages: bool = False,
) -> ScenarioResult:
    """Run *spec* end to end; never raises for in-band failures.

    The one episode, then one fold of it: metadata, the target's
    metrics and checks (the in-process stack, or — when the spec's
    ``[shard]`` table sets ``shards > 0`` — real worker processes), the
    ``survived`` check and the spec's ``expect`` bands.

    Args:
        spec: the scenario document.
        seed: overrides the spec's seed (the grid's seed axis).
        overrides: dotted-path spec overrides (the grid's config axis).
        cell: grid-cell coordinates stamped into the archive metadata.
        profile_stages: archive the stage profiler's summary (wall
            timings — off for byte-stable baselines).
    """
    spec = apply_overrides(spec, overrides or {})
    episode = Episode(spec, seed).run()
    run_seed = episode.seed

    meta = collect_meta(seed=run_seed, config={"overrides": overrides or {}})
    meta["scenario"] = spec.name
    meta["spec"] = spec.to_dict()
    meta["cell"] = dict(cell or {"scenario": spec.name, "seed": run_seed})
    resultset = Resultset(f"scenario.{spec.name}", meta=meta)
    exact = partial(resultset.record, exact=True, portable=True)
    exact("scenario.flows", episode.generator.flows_generated, unit="flows")
    fold = _fold_shards if episode.runtime is not None else _fold_stack
    events, checks = fold(episode, exact, resultset, profile_stages)
    if episode.temp_dir is not None:
        shutil.rmtree(episode.temp_dir, ignore_errors=True)
    offered = resultset.metrics["scenario.packets_offered"]["value"]
    meta["events"] = [str(event) for event in events]
    elapsed_s = episode.elapsed_s
    meta["wall"] = {
        "elapsed_s": round(elapsed_s, 3),
        "packets_per_s": round(offered / elapsed_s, 1) if elapsed_s > 0 else 0.0,
    }

    unhandled = [] if episode.error is None else [repr(episode.error)]
    checks.insert(0, Check("survived", not unhandled, "; ".join(unhandled)))
    for kind, band in sorted(spec.expect.items()):
        count = sum(event.kind == kind for event in events)
        low, high = band.get("min"), band.get("max")
        ok = (low is None or count >= low) and (high is None or count <= high)
        want = " and ".join(
            part
            for part in (
                f">={low}" if low is not None else "",
                f"<={high}" if high is not None else "",
            )
            if part
        )
        checks.append(
            Check(f"expect.{kind}", ok, f"saw {count}, want {want}")
        )

    return ScenarioResult(
        spec=spec,
        seed=run_seed,
        resultset=resultset,
        events=meta["events"],
        checks=checks,
    )
