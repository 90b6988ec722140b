"""Execute one scenario spec through the stage-graph runtime.

The runner is deliberately thin: all wiring comes from
:class:`repro.stack.builder.StackBuilder` (the composition root), the
run is :meth:`RuruStack.run` — the same driver every CLI command and
chaos run uses — and the outcome is folded into one
:class:`repro.obs.bench.Resultset` plus a list of correctness checks.

Everything the resultset's ``metrics`` section carries is
*deterministic*: same (spec, seed) → byte-identical metrics and
anomaly-event sequences. Wall-clock observations (elapsed seconds,
packets/s) land in the metadata block instead, stamped next to the git
revision and platform, so two runs of the same cell diff clean.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import PipelineConfig
from repro.obs import Telemetry
from repro.obs.bench import Resultset, collect_meta
from repro.overload import CLASSES, HANDSHAKE, PAYLOAD
from repro.resilience import Ledger
from repro.scenarios.spec import EVENT_KINDS, ScenarioSpec, apply_overrides
from repro.stack.builder import StackBuilder
from repro.traffic.diurnal import DiurnalProfile
from repro.traffic.generator import GeneratorConfig, TrafficGenerator
from repro.traffic.endpoints import EndpointPopulation

NS_PER_S = 1_000_000_000


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
            f"  ledger: ingested={self.metric('ledger.ingested'):,.0f} "
            f"processed={self.metric('ledger.processed'):,.0f} "
            f"dropped={self.metric('ledger.dropped'):,.0f} "
            f"deadlettered={self.metric('ledger.deadlettered'):,.0f} "
            f"(balance {self.metric('ledger.balance'):+,.0f})",
        ]
        if self.metric("overload.level_max") is not None:
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


def run_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    overrides: Optional[Dict[str, object]] = None,
    cell: Optional[Dict[str, object]] = None,
    profile_stages: bool = False,
) -> ScenarioResult:
    """Run *spec* end to end; never raises for in-band failures.

    Args:
        spec: the scenario document.
        seed: overrides the spec's seed (the grid's seed axis).
        overrides: dotted-path spec overrides (the grid's config axis).
        cell: grid-cell coordinates stamped into the archive metadata.
        profile_stages: archive the stage profiler's summary (wall
            timings — off for byte-stable baselines).
    """
    spec = apply_overrides(spec, overrides or {})
    if spec.shard.enabled:
        # The process-topology axis takes over: the episode runs
        # through real worker processes (repro.shard) instead of the
        # in-process stack. Stage profiling does not apply there.
        from repro.scenarios.shard_runner import run_shard_scenario

        return run_shard_scenario(
            spec, seed=seed, overrides=overrides, cell=cell
        )
    run_seed = spec.seed if seed is None else int(seed)
    generator = build_scenario_generator(spec, run_seed)
    fault_profile = spec.faults.resolve()

    telemetry = Telemetry()
    builder = (
        StackBuilder()
        .generator(generator)
        .queues(spec.stack.queues)
        .telemetry(telemetry)
        .analytics(num_workers=spec.stack.analytics_workers)
        .anomaly()
        .frontend(hwm=spec.stack.frontend_hwm)
        .faults(fault_profile, seed=run_seed)
    )
    if spec.stack.topk is not None:
        builder.topk(capacity=spec.stack.topk)
    if spec.stack.queue_capacity is not None:
        builder.pipeline_config(
            PipelineConfig(
                num_queues=spec.stack.queues,
                queue_capacity=spec.stack.queue_capacity,
            )
        )
    if spec.overload.enabled:
        builder.overload(
            low=spec.overload.low,
            high=spec.overload.high,
            up_dwell_ms=spec.overload.up_dwell_ms,
            down_dwell_ms=spec.overload.down_dwell_ms,
            sampled_modulus=spec.overload.sampled_modulus,
            snap_len=spec.overload.snap_len,
        )
    stack = builder.build()

    unhandled: List[str] = []
    started = time.perf_counter()
    try:
        stack.run(
            window_ns=(
                int(spec.stack.feed_window_ms * 1_000_000)
                if spec.stack.feed_window_ms is not None
                else None
            )
        )
    except Exception as exc:  # noqa: BLE001 — the checks carry it
        unhandled.append(repr(exc))
    elapsed_s = time.perf_counter() - started

    stats = stack.pipeline.stats_snapshot()
    ledger = stack.service.conservation_ledger()
    end_ns = spec.traffic.start_ns + spec.traffic.duration_ns
    events = stack.anomaly.finish(now_ns=max(end_ns, stack.now_ns))
    event_counts = {kind: 0 for kind in EVENT_KINDS}
    for event in events:
        event_counts[event.kind] = event_counts.get(event.kind, 0) + 1

    meta = collect_meta(seed=run_seed, config={"overrides": overrides or {}})
    meta["scenario"] = spec.name
    meta["spec"] = spec.to_dict()
    meta["cell"] = dict(cell or {"scenario": spec.name, "seed": run_seed})
    meta["events"] = [str(event) for event in events]
    meta["wall"] = {
        "elapsed_s": round(elapsed_s, 3),
        "packets_per_s": (
            round(stats.packets_offered / elapsed_s, 1) if elapsed_s > 0 else 0.0
        ),
    }
    resultset = Resultset(f"scenario.{spec.name}", meta=meta)

    def exact(name: str, value: float, unit: str = "") -> None:
        resultset.record(name, value, unit=unit, exact=True, portable=True)

    exact("scenario.flows", generator.flows_generated, unit="flows")
    exact("scenario.packets_offered", stats.packets_offered, unit="packets")
    exact("scenario.measurements", stats.measurements, unit="records")
    exact("scenario.enriched", stack.service.enriched_count, unit="records")
    exact("scenario.tsdb_points", stack.tsdb.total_points(), unit="points")
    exact("ledger.ingested", ledger.ingested)
    exact("ledger.processed", ledger.processed)
    exact("ledger.dropped", ledger.dropped)
    exact("ledger.deadlettered", ledger.deadlettered)
    exact("ledger.balance", ledger.balance)
    exact("frontend.received", stack.frontend_received)
    exact("frontend.degraded", stack.frontend_degraded)
    exact(
        "faults.injected_total",
        sum(stack.injector.injected.values()) if stack.injector else 0,
    )
    if stack.resilience is not None:
        exact("resilience.degraded_published", stack.resilience.degraded_published)
        exact("resilience.dlq_total", stack.resilience.dlq.total)
        exact("resilience.retries", stack.resilience.retries)
    controller = stack.overload
    oledger = None
    if controller is not None:
        exact("overload.level", controller.level)
        exact("overload.level_max", controller.level_max)
        exact("overload.transitions", len(controller.transitions))
        for klass in sorted(CLASSES):
            exact(f"overload.offered.{klass}", controller.offered[klass])
            exact(f"overload.admitted.{klass}", controller.admitted[klass])
            exact(f"overload.shed.{klass}", controller.shed_total(klass=klass))
        exact("overload.truncated", controller.truncated)
        exact("overload.ring_displacements", controller.ring_displacements)
        exact("overload.mq_offered", controller.mq_offered)
        oledger = Ledger.from_parts(
            controller.mq_offered,
            ledger,
            controller.shed_total(stage="mq"),
        )
        exact("oledger.ingested", oledger.ingested)
        exact("oledger.shed", oledger.shed)
        exact("oledger.balance", oledger.balance)
        meta["overload"] = controller.summary()
        meta["overload_transitions"] = [
            str(transition) for transition in controller.transitions
        ]
    exact("events.total", len(events), unit="events")
    for kind in sorted(event_counts):
        exact(f"events.{kind}", event_counts[kind], unit="events")
    if profile_stages:
        resultset.stage_profile = dict(telemetry.profiler.summary())

    checks = [
        Check(
            "survived",
            not unhandled,
            "; ".join(unhandled),
        ),
        Check(
            "ledger-conserves",
            ledger.ok,
            str(ledger) if not ledger.ok else "",
        ),
    ]
    if controller is not None:
        # Frame-level sheds split into rejected-at-offer frames
        # (packets_shed) and queued-then-evicted victims
        # (ring_displacements); MQ-stage sheds are records, not frames.
        frame_shed = controller.shed_total() - controller.shed_total(stage="mq")
        attributed = stats.packets_shed + controller.ring_displacements
        packet_balance = stats.packets_offered - (
            stats.packets_queued + stats.nic_drops + stats.packets_shed
        )
        queued_balance = stats.packets_queued - (
            stats.packets_processed + controller.ring_displacements
        )
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
        checks.append(
            Check(
                "overload-ledger-conserves",
                oledger.ok,
                str(oledger) if not oledger.ok else "",
            )
        )
        if spec.overload.handshake_shed_max_ratio is not None:
            ratio = controller.shed_ratio(HANDSHAKE)
            limit = spec.overload.handshake_shed_max_ratio
            checks.append(
                Check(
                    "handshake-shed-bounded",
                    ratio <= limit,
                    f"shed ratio {ratio:.4f}, want <= {limit}",
                )
            )
        if spec.overload.payload_shed_min_ratio is not None:
            ratio = controller.shed_ratio(PAYLOAD)
            floor = spec.overload.payload_shed_min_ratio
            checks.append(
                Check(
                    "payload-shed-engaged",
                    ratio >= floor,
                    f"shed ratio {ratio:.4f}, want >= {floor}",
                )
            )
    for kind, band in sorted(spec.expect.items()):
        count = event_counts.get(kind, 0)
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
        events=[str(event) for event in events],
        checks=checks,
    )
