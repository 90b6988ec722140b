"""Chaos runs: a full Ruru stack run under a named fault profile.

``ruru chaos --profile lossy-mq --seed 42`` and the chaos pytest suite
both run one episode of a spec with the faults tier
(:class:`repro.scenarios.runner.Episode`), which wires every fault
adapter into a real pipeline + analytics + resilience stack and replays
its seeded traffic along the stage graph. :func:`render_chaos` reads
the drained episode — every number from its books
(:attr:`~repro.scenarios.runner.Episode.counts`), the breakers'
recovery times from their transition logs — into the report that
answers the three questions that matter:

1. **Did it survive?** — zero unhandled exceptions.
2. **Is every record accounted for?** — the count-conservation
   invariant ``ingested == processed + dropped + deadlettered``.
3. **Was degradation observable?** — retries, breaker episodes, DLQ
   contents and supervisor restarts, all also exposed through the
   telemetry registry.

Everything is seeded; two runs with the same (profile, seed) produce
identical books.
"""

from __future__ import annotations

from operator import attrgetter

from repro.resilience import Ledger

NS_PER_S = 1_000_000_000


def chaos_ok(episode) -> bool:
    """Survived (no unhandled exception) and conserved."""
    return episode.error is None and Ledger.from_books(episode.counts).ok


def render_chaos(episode) -> str:
    """The ``ruru chaos`` report of a drained in-process episode with
    the faults and analytics tiers."""
    counts, stack = episode.counts, episode.stack
    profile, ledger = stack.profile, Ledger.from_books(counts)
    lines = [
        f"chaos run: profile={profile.name!r} seed={episode.seed}",
        f"  {profile.description}",
        "faults injected:",
    ]
    faults = sorted(
        (*name[len("fault."):].rsplit(".", 1), count)
        for name, count in counts.items()
        if name.startswith("fault.")
    )
    lines.extend(f"  {stage:>8}.{kind:<14} {count:>8}" for stage, kind, count in faults)
    if not faults:
        lines.append("  (none)")
    lines.append("conservation: " + str(ledger))
    loss = 1.0 - ledger.processed / ledger.ingested if ledger.ingested else 0.0
    lines.append(
        f"measurement loss: {loss:.2%} "
        f"({counts['resilience.degraded_published']} published degraded)"
    )
    lines.append(
        f"dead letters: depth={counts['resilience.dlq_depth']} "
        f"total={counts['resilience.dlq_total']}"
    )
    lines.append(f"supervisor restarts: {counts['supervisor.restarts']}")
    lines.append(
        f"tsdb: {counts['resilience.points_written']} points written, "
        f"{counts['resilience.points_lost']} lost, "
        f"{counts['resilience.retries']} retries"
    )
    if "overload.level_max" in counts:
        shed = sorted(
            ("/".join(name.split(".")[2:]), count)
            for name, count in counts.items()
            if name.startswith("overload.shed.") and name.count(".") == 3
        )
        lines.append(
            f"overload: peaked at level {counts['overload.level_max']} "
            f"({counts['overload.transitions']} transitions), "
            f"shed {sum(count for _, count in shed)}"
            + (" (" + ", ".join(f"{k}={v}" for k, v in shed) + ")" if shed else "")
        )
    for breaker in sorted(stack.resilience.breakers, key=attrgetter("name")):
        recovered = ", ".join(f"{t / NS_PER_S:.2f}s" for t in breaker.recovery_times_ns())
        lines.append(
            f"breaker {breaker.name!r}: opened {counts[f'breaker.{breaker.name}.opened']}x"
            + (f", recovered in [{recovered}]" if recovered else "")
        )
    if episode.error is not None:
        lines.append("UNHANDLED EXCEPTIONS:")
        lines.append(f"  {episode.error!r}")
    lines.append("verdict: " + ("OK" if chaos_ok(episode) else "FAILED"))
    return "\n".join(lines)
