"""Run a scenario through the process-sharded runtime (``repro.shard``).

The dispatch target for specs whose ``[shard]`` table sets
``shards > 0``: the spec's traffic axis still builds the workload, but
instead of the in-process stack the packets flow through
:class:`repro.shard.ShardedRuntime` — one real OS process per RX
queue, MQ frames over pipes, a supervising parent — optionally with a
scheduled SIGKILL against one shard to exercise crash containment,
checkpoint + WAL recovery and rejoin.

Dispatch is lock-step and a dead shard rejoins by virtual round (the
heartbeat lease only ever ends a wait on a shard that is stuck), so every
metric the resultset records is byte-stable for a (spec, seed) pair
and gates ``exact`` against the committed baseline, exactly like the
in-process scenarios' ledgers do. Wall-clock observations land in the
metadata block.
"""

from __future__ import annotations

import tempfile
import time
from typing import Dict, Optional

from repro.core.config import PipelineConfig
from repro.obs.bench import Resultset, collect_meta
from repro.scenarios.spec import ScenarioSpec

NS_PER_S = 1_000_000_000


def run_shard_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    overrides: Optional[Dict[str, object]] = None,
    cell: Optional[Dict[str, object]] = None,
):
    """Execute one sharded episode; returns a ``ScenarioResult``.

    *spec* must already have any overrides applied (the public
    :func:`repro.scenarios.runner.run_scenario` does this before
    dispatching here); *overrides* is stamped into the metadata only.
    """
    # Imported late: the runner module imports this one's caller.
    from repro.scenarios.runner import (
        Check,
        ScenarioResult,
        build_scenario_generator,
    )
    from repro.shard.runtime import ShardedRuntime

    shard = spec.shard
    run_seed = spec.seed if seed is None else int(seed)
    generator = build_scenario_generator(spec, run_seed)
    packets = generator.packet_list()

    state_dir = tempfile.mkdtemp(prefix="ruru-shard-") if shard.durable else None
    runtime = ShardedRuntime(
        shard.shards,
        PipelineConfig(num_queues=shard.shards),
        state_dir=state_dir,
        policy=shard.policy,
        checkpoint_every_batches=shard.checkpoint_every_batches,
        restart_delay_batches=shard.restart_delay_batches,
        max_restarts_per_shard=shard.max_restarts,
        batch_size=shard.batch_size,
    )
    if shard.kill_shard is not None:
        runtime.schedule_kill(shard.kill_shard, at_seq=shard.kill_at_batch)

    unhandled = []
    report = None
    started = time.perf_counter()
    try:
        report = runtime.run(packets, batch_size=shard.batch_size)
    except Exception as exc:  # noqa: BLE001 — the checks carry it
        unhandled.append(repr(exc))
    finally:
        runtime.close()
    elapsed_s = time.perf_counter() - started

    meta = collect_meta(seed=run_seed, config={"overrides": overrides or {}})
    meta["scenario"] = spec.name
    meta["spec"] = spec.to_dict()
    meta["cell"] = dict(cell or {"scenario": spec.name, "seed": run_seed})
    meta["wall"] = {
        "elapsed_s": round(elapsed_s, 3),
        "packets_per_s": (
            round(len(packets) / elapsed_s, 1) if elapsed_s > 0 else 0.0
        ),
    }
    resultset = Resultset(f"scenario.{spec.name}", meta=meta)

    def exact(name: str, value: float, unit: str = "") -> None:
        resultset.record(name, value, unit=unit, exact=True, portable=True)

    exact("scenario.flows", generator.flows_generated, unit="flows")
    exact("scenario.packets_offered", len(packets), unit="packets")

    checks = [Check("survived", not unhandled, "; ".join(unhandled))]
    if report is not None:
        # Heartbeat counts are wall-clock coupled; everything below is
        # a function of (spec, seed) alone.
        meta["shard"] = {
            "states": report.states,
            "restarts": report.restarts,
            "heartbeats_seen": report.heartbeats_seen,
            "rounds": report.rounds,
        }
        ledger = report.ledger
        # The canonical names the render/grid tooling reads, then the
        # shard-only terms.
        exact("scenario.measurements", report.records["emitted"], unit="records")
        exact("ledger.ingested", ledger.ingested)
        exact("ledger.processed", ledger.processed)
        exact("ledger.dropped", ledger.dropped)
        exact("ledger.deadlettered", ledger.deadlettered)
        exact("ledger.balance", ledger.balance)
        exact("shard.ledger.shed", ledger.shed)
        exact("shard.ledger.lost_at_crash", ledger.lost_at_crash)
        exact("shard.rerouted", report.rerouted_packets, unit="packets")
        exact("shard.restarts", report.restarts, unit="restarts")
        for klass in sorted(report.shed_by_class):
            exact(f"shard.shed.{klass}", report.shed_by_class[klass])
        exact(
            "shard.records.delivered",
            report.records["delivered"],
            unit="records",
        )
        for name in sorted(report.shards):
            entry = report.shards[name]
            exact(f"shard.{name}.dispatched", entry["dispatched"])
            exact(f"shard.{name}.acked", entry["acked"])
            exact(f"shard.{name}.lost_at_crash", entry["lost_at_crash"])
            exact(f"shard.{name}.restarts", entry["restarts"])

        checks.append(
            Check(
                "shard-ledger-conserves",
                ledger.ok,
                str(ledger) if not ledger.ok else "",
            )
        )
        checks.append(
            Check(
                "shard-reconciliation",
                all(ok for _, ok, _ in report.reconciliation),
                "; ".join(report.failed_checks()),
            )
        )
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

    return ScenarioResult(
        spec=spec,
        seed=run_seed,
        resultset=resultset,
        events=[],
        checks=checks,
    )
