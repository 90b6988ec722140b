"""Tiers compose: every subset of the builder's tier calls runs or is
refused at ``build()``.

Eight calls, 256 subsets, run under two fault profiles on a 1-s,
30 flows/s scenario. A subset that asks for ``durable``, ``anomaly``,
``topk`` or ``frontend`` without ``analytics`` has no input for that
tier and must be a ``ValueError`` naming it (120 subsets); every other
subset (136) must build, run and drain with its books closed and with
exactly the tiers it asked for — no mid-run crash, no tier silently left
out.
"""

import itertools

import pytest

from repro.obs import Telemetry
from repro.resilience import Ledger
from repro.scenarios.runner import build_scenario_generator
from repro.scenarios.spec import ScenarioSpec, TrafficSpec
from repro.stack import StackBuilder

TIERS = (
    "analytics", "faults", "durable", "overload",
    "telemetry", "anomaly", "topk", "frontend",
)
#: Tiers that ride the analytics tier's output.
RIDERS = ("durable", "anomaly", "topk", "frontend")
#: Stages each tier call adds to the graph.
STAGES = {
    "analytics": {"mq", "analytics"},
    "durable": {"tsdb", "checkpoint"},
    "overload": {"overload"},
    "telemetry": {"telemetry"},
    "anomaly": {"anomaly"},
    "topk": {"topk"},
    "frontend": {"frontend"},
}
SEED = 7
TRAFFIC = ScenarioSpec(name="tier-grid", traffic=TrafficSpec(duration_s=1, rate=30))


def build(tiers, profile, state_dir):
    generator = build_scenario_generator(TRAFFIC, SEED)
    builder = StackBuilder().generator(generator).queues(2)
    calls = {
        "analytics": builder.analytics,
        "faults": lambda: builder.faults(profile, seed=SEED),
        "durable": lambda: builder.durable(str(state_dir)),
        "overload": builder.overload,
        "telemetry": lambda: builder.telemetry(Telemetry()),
        "anomaly": builder.anomaly,
        "topk": lambda: builder.topk(10),
        "frontend": builder.frontend,
    }
    for tier in tiers:
        calls[tier]()
    return builder.build()


def problems(stack, tiers, report):
    """What is wrong with one drained stack that asked for *tiers*."""
    found = []
    wanted = {"nic", "workers"}.union(*(STAGES.get(t, ()) for t in tiers))
    if {"anomaly", "topk"} & set(tiers):
        wanted.add("frontend")  # the riders' feed
    if set(stack.graph.names()) != wanted:
        found.append(f"stages {stack.graph.names()}, asked for {sorted(wanted)}")
    if ("faults" in tiers) != (stack.supervisor is not None) or (
        ("faults" in tiers) != (stack.injector is not None)
    ):
        found.append("fault machinery does not match the faults call")
    if not report.ok:
        found.append(f"drain not ok: {report.render()}")
    stats = report.stats
    if stats.packets_offered != (
        stats.packets_queued + stats.nic_drops + stats.packets_shed
    ):
        found.append("frames: offered != queued + nic_drops + shed")
    service = stack.service
    if service is not None:
        ledger = service.conservation_ledger()
        if not ledger.ok:
            found.append(f"analytics ledger open: {ledger}")
        if stack.overload is not None:
            gate = Ledger.from_parts(
                stack.overload.mq_offered,
                ledger,
                stack.overload.shed_total(stage="mq"),
            )
            if not gate.ok:
                found.append(f"overload ledger open: {gate}")
    received = stack.frontend_received
    if stack.topk is not None and stack.topk.total != received:
        found.append(f"topk saw {stack.topk.total} of {received}")
    if stack.anomaly is not None and stack.anomaly.latency.samples_seen != received:
        found.append(
            f"anomaly saw {stack.anomaly.latency.samples_seen} of {received}"
        )
    return found


def run_tier_grid(profile, root):
    """Every subset's outcome: ``("ran", [problems])`` or
    ``("refused", message)``."""
    outcomes = {}
    for size in range(len(TIERS) + 1):
        for tiers in itertools.combinations(TIERS, size):
            name = "+".join(tiers) or "bare"
            try:
                stack = build(tiers, profile, root / name)
            except ValueError as exc:
                outcomes[tiers] = ("refused", str(exc))
                continue
            try:
                report = stack.run()
                outcomes[tiers] = ("ran", problems(stack, tiers, report))
            finally:
                if stack.wal is not None:
                    stack.wal.close()
    return outcomes


@pytest.mark.parametrize("profile", ["crashy-workers", "lossy-mq"])
def test_every_subset_of_tier_calls_runs_or_is_refused_at_build(profile, tmp_path):
    outcomes = run_tier_grid(profile, tmp_path)
    ran = {tiers: found for tiers, (kind, found) in outcomes.items() if kind == "ran"}
    refused = {
        tiers: message for tiers, (kind, message) in outcomes.items() if kind == "refused"
    }
    assert (len(outcomes), len(ran), len(refused)) == (256, 136, 120)
    broken = {"+".join(tiers) or "bare": found for tiers, found in ran.items() if found}
    assert not broken, broken
    for tiers, message in refused.items():
        missing = [rider for rider in RIDERS if rider in tiers]
        assert "analytics" not in tiers and missing, tiers
        assert message == "; ".join(f"{r} requires analytics" for r in missing)
