"""``repro.durability`` — crash-safe state for the whole pipeline.

The paper's value proposition is *continuous* monitoring: the firewall
anomaly was caught because Ruru was up during a nightly maintenance
window — exactly when operational restarts happen. PR 2 made the
pipeline degrade gracefully while the process lives; this subsystem
makes a ``kill -9`` at any point recoverable with bounded,
accounted-for loss:

* :mod:`~repro.durability.codec` — the versioned, checksummed snapshot
  envelope. Truncated or corrupted snapshots fail as a typed
  :class:`SnapshotError`; partial state is never loaded.
* :mod:`~repro.durability.wal` — a write-ahead log in front of
  :mod:`repro.tsdb.storage` with monotonic batch ids, so restored runs
  never double-write points. It is the store's only durable image: the
  store is always ``replay(log)``, and retention compacts the log.
* :mod:`~repro.durability.checkpoint` — the periodic checkpointer (on
  the virtual clock) persisting flow tables, aggregators, anomaly
  baselines, the resilience ledger and the DLQ; atomic writes, with
  fallback to the newest *valid* checkpoint on corruption.
* the assembled stack itself is a spec with the durable tier
  (``ruru live``'s, built by :class:`repro.scenarios.runner.Episode`):
  graceful drain
  (:meth:`repro.stack.RuruStack.drain`) and the ``ruru_checkpoint_*`` /
  ``ruru_wal_*`` / ``ruru_recovery_*`` metrics live there.
* :mod:`~repro.durability.recovery` — hot restart: load the latest
  valid checkpoint, rebuild the store from the WAL idempotently,
  reconcile the ledger with an explicit ``lost_at_crash`` term, resume.
* :mod:`~repro.durability.harness` — the kill-anywhere recovery
  harness: deterministic crash points at every stage boundary,
  post-recovery invariants per (profile, seed, crash point).
"""

from __future__ import annotations

from repro.durability.checkpoint import CheckpointInfo, Checkpointer
from repro.durability.codec import SnapshotError, decode_snapshot, encode_snapshot
from repro.durability.harness import RecoveryHarness, RecoveryTrial, run_recovery_trial
from repro.durability.recovery import RecoveryReport, recover_runtime
from repro.durability.signals import GracefulShutdown
from repro.durability.wal import DurableTsdb, WalError, WriteAheadLog

__all__ = [
    "CheckpointInfo",
    "Checkpointer",
    "DurableTsdb",
    "GracefulShutdown",
    "RecoveryHarness",
    "RecoveryReport",
    "RecoveryTrial",
    "SnapshotError",
    "WalError",
    "WriteAheadLog",
    "decode_snapshot",
    "encode_snapshot",
    "recover_runtime",
    "run_recovery_trial",
]
