"""Kill-anywhere recovery trials: crash at a named point, recover,
prove the invariants.

One :class:`RecoveryTrial` is the full story of one crash:

1. Materialize the (profile, seed) workload once — the harness plays
   the *network*, which outlives any process.
2. Run a ``durable`` stack with a
   :class:`~repro.faults.crashpoints.CrashSchedule` armed at one
   registered point. The :class:`SimulatedCrash` (a BaseException,
   like the real signal) escapes every handler and "kills" the
   process; the dead stack object is abandoned, exactly as dead
   memory would be.
3. Build a fresh stack on the same state directory and
   :func:`~repro.durability.recovery.recover_runtime` it, handing over
   the observer's external ingest count.
4. Feed the packets the dead process never received — packets already
   handed over are gone, that loss is the point — then drain
   gracefully.

Invariants asserted per (profile, seed, crash_point):

* the armed crash actually fired at its point;
* the reconciled ledger balances with an explicit, non-negative
  ``lost_at_crash``;
* an immediate second WAL replay adds **nothing** to the store — the
  batch-id dedup makes replay idempotent, so nothing double-writes;
* after resuming and draining, the extended equation still balances
  over the *whole* trial (observer total vs final counters);
* the resumed run ends in a clean checkpoint.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core import feed
from repro.durability.recovery import RecoveryReport, recover_runtime
from repro.faults.crashpoints import CRASH_POINTS, CrashSchedule, SimulatedCrash
from repro.resilience.invariants import Ledger
from repro.scenarios.runner import Episode
from repro.scenarios.spec import ScenarioSpec
from repro.stack.builder import DrainReport, RuruStack


@dataclass
class RecoveryTrial:
    """The verdict of one crash → recover → resume → drain cycle."""

    profile: str
    seed: int
    crash_point: str
    hit: int
    crashed: bool
    crash_passes: int
    observed_at_crash: int
    recovery: Optional[RecoveryReport]
    double_replay_applied: int
    final_ledger: Optional[Ledger]
    final_drain: Optional[DrainReport]

    @property
    def ok(self) -> bool:
        return (
            self.crashed
            and self.recovery is not None
            and self.recovery.ok
            and self.double_replay_applied == 0
            and self.final_ledger is not None
            and self.final_ledger.ok
            and self.final_drain is not None
            and self.final_drain.ok
        )

    @property
    def lost_at_crash(self) -> int:
        return self.recovery.lost_at_crash if self.recovery else 0

    def counts(self) -> Dict[str, int]:
        """Deterministic signature: two same-triple trials must match."""
        assert self.recovery is not None and self.final_ledger is not None
        return {
            "crash_passes": self.crash_passes,
            "observed_at_crash": self.observed_at_crash,
            "lost_at_crash": self.recovery.lost_at_crash,
            "replayed_batches": self.recovery.replayed_batches,
            "replayed_points": self.recovery.replayed_points,
            "duplicates_skipped": self.recovery.duplicates_skipped,
            "expired_dropped": self.recovery.expired_dropped,
            "final_observed": self.final_ledger.ingested,
            "final_processed": self.final_ledger.processed,
            "final_dropped": self.final_ledger.dropped,
            "final_deadlettered": self.final_ledger.deadlettered,
        }

    def render(self) -> str:
        lines = [
            f"recovery trial: profile={self.profile!r} seed={self.seed} "
            f"crash_point={self.crash_point!r} (hit {self.hit})",
            f"  crashed: {self.crashed} "
            f"(boundary crossed {self.crash_passes}x)",
        ]
        if self.recovery is not None:
            lines.extend("  " + line for line in self.recovery.render().splitlines())
        lines.append(
            f"  double-replay applied: {self.double_replay_applied} "
            f"(must be 0 — idempotence)"
        )
        if self.final_ledger is not None:
            lines.append(f"  whole-trial ledger: {self.final_ledger}")
        lines.append("verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


class RecoveryHarness:
    """Runs kill-anywhere trials of one spec against its state directory.

    Args:
        spec: the run — a spec with the durable tier (``ruru recover``'s);
            its ``durable.state_dir`` is the scratch directory each trial
            wipes and reuses, and its seed and fault profile are the
            trial triple's first two coordinates.
    """

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.state_dir = spec.durable.state_dir

    def _make_stack(self, crash_schedule=None) -> RuruStack:
        return Episode(self.spec, crash_schedule=crash_schedule).stack

    def _wipe_state_dir(self) -> None:
        if os.path.isdir(self.state_dir):
            shutil.rmtree(self.state_dir)
        os.makedirs(self.state_dir, exist_ok=True)

    def run_trial(self, crash_point: str, hit: int = 1) -> RecoveryTrial:
        """One full crash/recover/resume/drain cycle at *crash_point*."""
        if crash_point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {crash_point!r}")
        self._wipe_state_dir()

        # The observer outlives the process — the software analogue of
        # the optical tap's hardware counters.
        observed = {"count": 0}

        def observe() -> None:
            observed["count"] += 1

        schedule = CrashSchedule().arm(crash_point, hit=hit)
        victim = self._make_stack(crash_schedule=schedule)
        victim.service.ingest_observer = observe

        # The network: materialized once, consumed exactly once.
        batches = list(
            feed.batches(victim.packet_stream(), victim.pipeline.feed_batch)
        )

        crashed = False
        fed = 0
        try:
            for batch in batches:
                fed += 1  # handed to the process — gone if it dies now
                victim.process_batch(batch)
            victim.drain()
        except SimulatedCrash:
            crashed = True
        observed_at_crash = observed["count"]
        del victim  # dead memory
        trial = dict(
            profile=self.spec.faults.resolve().name,
            seed=self.spec.seed,
            crash_point=crash_point,
            hit=hit,
            crashed=crashed,
            crash_passes=schedule.passes.get(crash_point, 0),
            observed_at_crash=observed_at_crash,
        )
        if not crashed:
            return RecoveryTrial(
                **trial, recovery=None, double_replay_applied=0,
                final_ledger=None, final_drain=None,
            )

        # The restarted process: same directory, fresh everything else.
        survivor = self._make_stack()
        survivor.service.ingest_observer = observe
        recovery = recover_runtime(survivor, observed_ingested=observed_at_crash)

        # Idempotence probe: replaying the same WAL again must apply
        # nothing — the store already holds every batch in it. Read off
        # the store itself (no retention pass, so any growth is a
        # double write), not off the loss-window counters.
        points_before = survivor.tsdb.total_points()
        survivor.tsdb.replay_wal()
        double_replay_applied = survivor.tsdb.total_points() - points_before

        for batch in batches[fed:]:
            survivor.process_batch(batch)
        final_drain = survivor.drain()

        final_ledger = Ledger(
            ingested=observed["count"],
            processed=final_drain.ledger.processed,
            dropped=final_drain.ledger.dropped,
            deadlettered=final_drain.ledger.deadlettered,
            lost_at_crash=recovery.lost_at_crash,
            scope="durability",
        )
        return RecoveryTrial(
            **trial,
            recovery=recovery,
            double_replay_applied=double_replay_applied,
            final_ledger=final_ledger,
            final_drain=final_drain,
        )


def run_recovery_trial(
    spec: ScenarioSpec, crash_point: str, hit: int = 1
) -> RecoveryTrial:
    """One-call trial (what the CLI smoke and CI use)."""
    return RecoveryHarness(spec).run_trial(crash_point, hit=hit)
