"""Hot restart: checkpoint load, WAL replay, ledger reconciliation.

``ruru recover`` and the kill-anywhere harness both come through
:func:`recover_runtime`. Given a freshly built stack with the durable
tier (``ruru live``'s spec, built by
:class:`repro.scenarios.runner.Episode`) pointed at a state directory
the dead process left behind, it

1. finds the newest checkpoint that decodes cleanly (torn or
   bit-flipped files are skipped, falling back to the previous one);
2. restores every tier's state from it — or cold-starts if nothing
   valid survives;
3. rebuilds the store by replaying the WAL — its only durable image —
   idempotently: batches the in-memory store already holds are skipped
   by batch-id dedup, those above the checkpoint's mark are reported
   as the re-applied loss window, aborted batches never apply, a torn
   tail stops replay cleanly, a damaged frame costs one batch, and
   replayed points already past retention are dropped, not resurrected;
4. reconciles the ledger. With the outside observer's ingest count
   (the harness's stand-in for the tap's hardware counters) the loss
   window is explicit::

       lost_at_crash = observed_ingested - checkpoint.ingested

   and the extended conservation equation must balance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.durability.checkpoint import CheckpointInfo
from repro.resilience.invariants import Ledger


@dataclass
class RecoveryReport:
    """Everything one recovery decided and re-applied."""

    checkpoint: Optional[CheckpointInfo]
    clean_shutdown: bool
    cold_start: bool
    corrupt_skipped: int
    recovered_now_ns: int
    replayed_batches: int
    replayed_points: int
    duplicates_skipped: int
    torn_tail: bool
    expired_dropped: int
    ledger: Ledger
    durability_ledger: Optional[Ledger]
    duration_s: float
    damaged_frames: int = 0

    @property
    def ok(self) -> bool:
        """Recovered with every record accounted for."""
        if self.durability_ledger is not None:
            return self.durability_ledger.ok
        return self.ledger.ok

    @property
    def lost_at_crash(self) -> int:
        if self.durability_ledger is None:
            return 0
        return self.durability_ledger.lost_at_crash

    def render(self) -> str:
        lines = ["recovery report:"]
        if self.cold_start:
            lines.append("  no usable checkpoint — cold start")
        else:
            assert self.checkpoint is not None
            lines.append(
                f"  checkpoint: seq={self.checkpoint.seq} "
                f"t={self.checkpoint.now_ns / 1e9:.3f}s "
                f"{self.checkpoint.size_bytes} bytes "
                f"({'clean shutdown' if self.clean_shutdown else 'crash'})"
            )
        if self.corrupt_skipped:
            lines.append(f"  damaged checkpoints skipped: {self.corrupt_skipped}")
        lines.append(
            f"  wal replay: {self.replayed_batches} batches "
            f"({self.replayed_points} points) re-applied, "
            f"{self.duplicates_skipped} duplicates skipped"
            + (", torn tail tolerated" if self.torn_tail else "")
        )
        if self.damaged_frames:
            lines.append(
                f"  damaged wal frames skipped: {self.damaged_frames} "
                f"(their batches are lost)"
            )
        if self.expired_dropped:
            lines.append(
                f"  retention at recovery: {self.expired_dropped} "
                f"expired points dropped, not resurrected"
            )
        if self.durability_ledger is not None:
            lines.append(f"  reconciliation: {self.durability_ledger}")
        else:
            lines.append(f"  checkpoint ledger: {self.ledger}")
        lines.append(f"  recovered in {self.duration_s * 1e3:.1f} ms")
        lines.append("  verdict: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def recover_runtime(stack, observed_ingested: Optional[int] = None) -> RecoveryReport:
    """Recover *stack* from its state directory.

    Args:
        stack: a freshly built ``durable``
            :class:`~repro.stack.RuruStack` bound to the directory the
            previous process used. Its state is replaced in place.
        observed_ingested: the outside observer's count of records that
            entered the analytics tier before the kill. When given,
            the report carries the reconciled
            :meth:`~repro.resilience.Ledger.from_checkpoint` ledger
            with its explicit ``lost_at_crash``.
    """
    started = time.perf_counter()
    found = stack.checkpointer.latest_valid()
    cold_start = found is None
    clean = False
    info: Optional[CheckpointInfo] = None
    if found is not None:
        info, state = found
        clean = bool(state.get("checkpoint", {}).get("clean", False))
        stack.load_state(state)
        stack.recovered_from = info

    # Rebuild the store from its log. Retention runs at the recovered
    # clock so aged-out points stay gone.
    replay = stack.tsdb.replay_wal(now_ns=stack.now_ns)

    ledger = stack.service.conservation_ledger()
    durability_ledger = None
    if observed_ingested is not None:
        durability_ledger = Ledger.from_checkpoint(
            observed_ingested, ledger
        )
        stack.last_lost_at_crash = durability_ledger.lost_at_crash
    stack.recovery_count += 1

    return RecoveryReport(
        checkpoint=info,
        clean_shutdown=clean,
        cold_start=cold_start,
        corrupt_skipped=stack.checkpointer.corrupt_skipped,
        recovered_now_ns=stack.now_ns,
        replayed_batches=stack.tsdb.replayed_batches,
        replayed_points=stack.tsdb.replayed_points,
        duplicates_skipped=stack.tsdb.duplicates_skipped,
        torn_tail=replay.torn_tail,
        expired_dropped=stack.tsdb.expired_dropped,
        ledger=ledger,
        durability_ledger=durability_ledger,
        duration_s=time.perf_counter() - started,
        damaged_frames=replay.damaged_frames,
    )
