"""Chaos runs: a full Ruru stack run under a named fault profile.

``ruru chaos --profile lossy-mq --seed 42`` and the chaos pytest suite
both run one episode of a spec with the faults tier
(:class:`repro.scenarios.runner.Episode`), which wires every fault
adapter into a real pipeline + analytics + resilience stack and replays
its seeded traffic along the stage graph; :meth:`ChaosReport.of` folds
the drained episode into the report that answers the three questions
that matter:

1. **Did it survive?** — zero unhandled exceptions.
2. **Is every record accounted for?** — the count-conservation
   invariant ``ingested == processed + dropped + deadlettered``.
3. **Was degradation observable?** — retries, breaker episodes, DLQ
   contents and supervisor restarts, all also exposed through the
   telemetry registry.

Everything is seeded; two runs with the same (profile, seed) produce
identical counts, which the determinism check in the report verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.faults.profiles import FaultProfile
from repro.resilience import Ledger

NS_PER_S = 1_000_000_000


@dataclass
class ChaosReport:
    """Everything one chaos run produced."""

    profile: FaultProfile
    seed: int
    unhandled: List[str]
    ledger: Ledger
    faults_injected: Dict[Tuple[str, str], int]
    dlq_depth: int
    dlq_total: int
    dlq_summary: Dict[Tuple[str, str], int]
    supervisor_restarts: int
    retries: int
    degraded_published: int
    points_written: int
    points_lost: int
    breaker_opened: Dict[str, int]
    breaker_recovery_ns: Dict[str, List[int]] = field(default_factory=dict)
    frontend_received: int = 0
    frontend_degraded: int = 0
    overload_summary: Optional[Dict[str, object]] = None
    #: The drained stack, for what the report does not fold (the
    #: telemetry registry, the dead-letter queue's contents).
    stack: object = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        """Survived and conserved."""
        return not self.unhandled and self.ledger.ok

    def measurement_loss_rate(self) -> float:
        """Fraction of ingested records that did not publish."""
        if self.ledger.ingested == 0:
            return 0.0
        return 1.0 - self.ledger.processed / self.ledger.ingested

    def counts(self) -> Dict[str, int]:
        """The deterministic signature two same-seed runs must share."""
        out = {
            "ingested": self.ledger.ingested,
            "processed": self.ledger.processed,
            "dropped": self.ledger.dropped,
            "deadlettered": self.ledger.deadlettered,
            "dlq_total": self.dlq_total,
            "supervisor_restarts": self.supervisor_restarts,
            "retries": self.retries,
            "degraded_published": self.degraded_published,
            "points_written": self.points_written,
            "points_lost": self.points_lost,
            "frontend_received": self.frontend_received,
            "frontend_degraded": self.frontend_degraded,
            "faults_total": sum(self.faults_injected.values()),
        }
        for (stage, kind), count in sorted(self.faults_injected.items()):
            out[f"fault.{stage}.{kind}"] = count
        if self.overload_summary is not None:
            out["overload_level_max"] = self.overload_summary["level_max"]
            out["overload_transitions"] = self.overload_summary["transitions"]
            for key, count in sorted(self.overload_summary["shed"].items()):
                out[f"shed.{key}"] = count
        return out

    def render(self) -> str:
        """The ``ruru chaos`` report text."""
        lines = [
            f"chaos run: profile={self.profile.name!r} seed={self.seed}",
            f"  {self.profile.description}",
            "faults injected:",
        ]
        if self.faults_injected:
            for (stage, kind), count in sorted(self.faults_injected.items()):
                lines.append(f"  {stage:>8}.{kind:<14} {count:>8}")
        else:
            lines.append("  (none)")
        lines.append("conservation: " + str(self.ledger))
        lines.append(
            f"measurement loss: {self.measurement_loss_rate():.2%} "
            f"({self.degraded_published} published degraded)"
        )
        lines.append(
            f"dead letters: depth={self.dlq_depth} total={self.dlq_total}"
        )
        lines.append(f"supervisor restarts: {self.supervisor_restarts}")
        lines.append(
            f"tsdb: {self.points_written} points written, "
            f"{self.points_lost} lost, {self.retries} retries"
        )
        if self.overload_summary is not None:
            shed = self.overload_summary["shed"]
            lines.append(
                f"overload: peaked at level "
                f"{self.overload_summary['level_max']} "
                f"({self.overload_summary['transitions']} transitions), "
                f"shed {sum(shed.values())}"
                + (
                    " (" + ", ".join(f"{k}={v}" for k, v in sorted(shed.items())) + ")"
                    if shed
                    else ""
                )
            )
        for name, opened in sorted(self.breaker_opened.items()):
            recoveries = self.breaker_recovery_ns.get(name, [])
            recovered = ", ".join(f"{t / NS_PER_S:.2f}s" for t in recoveries)
            lines.append(
                f"breaker {name!r}: opened {opened}x"
                + (f", recovered in [{recovered}]" if recovered else "")
            )
        if self.unhandled:
            lines.append("UNHANDLED EXCEPTIONS:")
            lines.extend(f"  {text}" for text in self.unhandled)
        lines.append("verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)

    @classmethod
    def of(cls, episode) -> "ChaosReport":
        """Fold a drained in-process episode that has the faults and
        analytics tiers (a :class:`repro.scenarios.runner.Episode`)."""
        stack = episode.stack
        res = stack.resilience
        return cls(
            profile=stack.profile,
            seed=episode.seed,
            unhandled=[] if episode.error is None else [repr(episode.error)],
            ledger=stack.service.conservation_ledger(),
            faults_injected=dict(stack.injector.injected),
            dlq_depth=len(res.dlq),
            dlq_total=res.dlq.total,
            dlq_summary=res.dlq.summary(),
            supervisor_restarts=stack.supervisor.total_restarts,
            retries=res.retries,
            degraded_published=res.degraded_published,
            points_written=res.points_written,
            points_lost=res.points_lost,
            breaker_opened={
                breaker.name: breaker.opened_count for breaker in res.breakers
            },
            breaker_recovery_ns={
                breaker.name: breaker.recovery_times_ns()
                for breaker in res.breakers
            },
            frontend_received=stack.frontend_received,
            frontend_degraded=stack.frontend_degraded,
            overload_summary=(
                stack.overload.summary() if stack.overload is not None else None
            ),
            stack=stack,
        )


def run_chaos(spec, shutdown_flag=None) -> ChaosReport:
    """Run *spec* (a :class:`repro.scenarios.spec.ScenarioSpec` with the
    faults and analytics tiers — ``ruru chaos``'s) as one episode and
    fold it; an exception during the run is the report's, not raised.

    Args:
        spec: the episode; its seed drives the workload, every fault
            decision stream, and retry jitter — the whole run replays
            from this one number.
        shutdown_flag: optional zero-arg callable polled between feed
            batches; truthy → stop feeding and drain what is already
            in flight, so an interrupted chaos run still reconciles.
    """
    # Lazy: the runner builds through repro.stack.builder, which imports
    # the fault adapters, which land back in this package's __init__.
    from repro.scenarios.runner import Episode

    return ChaosReport.of(Episode(spec).run(stop=shutdown_flag))
