"""Periodic, atomic, versioned checkpoints on the virtual clock.

A checkpoint is one :mod:`repro.durability.codec` envelope holding the
``state_dict`` of every stateful tier — flow tables mid-handshake,
the open aggregation window, anomaly baselines, the resilience ledger,
the DLQ — and, for the TSDB, only its position in the write-ahead log
(the batch-id high-water mark): the log is the store's durable image,
so a checkpoint's size does not grow with the store.

Write discipline: serialize to ``<name>.tmp``, fsync, then
``os.replace`` onto the final name — so the final path either holds a
complete envelope or the previous one, never a half-written file, even
under kill -9. The last *keep* checkpoints are retained and
:meth:`Checkpointer.latest_valid` walks them newest-first, skipping
anything the codec rejects: a torn or bit-flipped newest checkpoint
degrades recovery to the previous one instead of failing it. An intact
envelope of another version is not damage: it stops the walk, so a
state directory this build cannot read is never resumed without its
checkpoints.

The directory is made and listed once per checkpointer, by its first
write and prune (which deletes any ``.tmp`` a kill orphaned); later
prunes drop from the files it wrote.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.durability.codec import ForeignSnapshotError, SnapshotError
from repro.durability.codec import decode_snapshot, encode_snapshot

CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".snap"
TMP_SUFFIX = ".tmp"


@dataclass(frozen=True)
class CheckpointInfo:
    """One checkpoint file's identity and size."""

    path: str
    seq: int
    now_ns: int
    size_bytes: int


def _parse_name(name: str) -> Optional[Tuple[int, int]]:
    """``ckpt-<seq>-<now_ns>.snap`` → (seq, now_ns), else None."""
    if not (name.startswith(CHECKPOINT_PREFIX) and name.endswith(CHECKPOINT_SUFFIX)):
        return None
    stem = name[len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)]
    parts = stem.split("-")
    if len(parts) != 2:
        return None
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        return None


class Checkpointer:
    """Owns one state directory's checkpoint files.

    Args:
        state_dir: directory for ``ckpt-<seq>-<now>.snap`` files
            (created on first write).
        capture: zero-arg callable returning the full state of the
            running stack as plain data (the runtime's ``capture_state``).
        interval_ns: virtual-time cadence for :meth:`maybe_checkpoint`.
        keep: checkpoints retained; older ones are pruned after each
            successful write.
        crash_schedule: optional
            :class:`~repro.faults.crashpoints.CrashSchedule` — the
            checkpoint write path is itself a crash surface and
            instruments ``checkpoint.pre`` / ``mid`` / ``post``.
        on_written: called with each new :class:`CheckpointInfo`.
        fsync: fsync the tmp file before the atomic rename. Same
            policy as the WAL: the recovery tests simulate crashes
            in-process, where a flush plus ``os.replace`` suffices;
            real deployments pay the fsync.
    """

    def __init__(
        self,
        state_dir: str,
        capture: Callable[[], dict],
        interval_ns: int = 1_000_000_000,
        keep: int = 2,
        crash_schedule=None,
        on_written: Optional[Callable[[CheckpointInfo], None]] = None,
        fsync: bool = False,
    ):
        if interval_ns <= 0:
            raise ValueError("interval_ns must be positive")
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.state_dir = str(state_dir)
        self.capture = capture
        self.interval_ns = interval_ns
        self.keep = keep
        self.crash_schedule = crash_schedule
        self.on_written = on_written
        self.fsync = fsync
        self.seq = 0
        self.checkpoints_written = 0
        self.bytes_written = 0
        self.last_checkpoint_ns: Optional[int] = None
        self.last_info: Optional[CheckpointInfo] = None
        self.corrupt_skipped = 0
        #: Checkpoint files, newest first; None until the first prune.
        self._files: Optional[List[CheckpointInfo]] = None

    def _reached(self, point: str) -> None:
        if self.crash_schedule is not None:
            self.crash_schedule.reached(point)

    # -- writing ------------------------------------------------------------

    def due(self, now_ns: int) -> bool:
        return (
            self.last_checkpoint_ns is None
            or now_ns - self.last_checkpoint_ns >= self.interval_ns
        )

    def maybe_checkpoint(self, now_ns: int) -> Optional[CheckpointInfo]:
        """Write a checkpoint if the interval has elapsed."""
        if not self.due(now_ns):
            return None
        return self.checkpoint(now_ns)

    def checkpoint(self, now_ns: int, clean: bool = False) -> CheckpointInfo:
        """Capture and write one checkpoint unconditionally.

        Args:
            now_ns: the virtual time stamped into the filename and
                envelope.
            clean: mark this as a drain-written checkpoint (nothing in
                flight behind it) — recovery reports distinguish a
                clean resume from a crash resume.
        """
        self._reached("checkpoint.pre")
        state = self.capture()
        state["checkpoint"] = {"now_ns": now_ns, "clean": clean, "seq": self.seq + 1}
        blob = encode_snapshot(state)

        if self._files is None:
            os.makedirs(self.state_dir, exist_ok=True)
        self.seq += 1
        name = f"{CHECKPOINT_PREFIX}{self.seq}-{now_ns}{CHECKPOINT_SUFFIX}"
        final_path = os.path.join(self.state_dir, name)
        tmp_path = final_path + TMP_SUFFIX

        schedule = self.crash_schedule
        if schedule is not None and schedule.will_fire("checkpoint.mid"):
            # Simulate the non-atomic failure mode the tmp+rename
            # discipline exists to prevent: a torn write at the final
            # path. latest_valid() must skip this file.
            with open(final_path, "wb") as handle:
                handle.write(blob[: max(1, len(blob) // 2)])
            schedule.reached("checkpoint.mid")
        self._reached("checkpoint.mid")

        with open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, final_path)

        info = CheckpointInfo(
            path=final_path, seq=self.seq, now_ns=now_ns, size_bytes=len(blob)
        )
        self.checkpoints_written += 1
        self.bytes_written += len(blob)
        self.last_checkpoint_ns = now_ns
        self.last_info = info
        self._prune(info)
        # checkpoint.post: the checkpoint is durable, the process dies
        # before doing anything else — every logged batch is at or
        # below the mark just written, so recovery re-applies nothing.
        self._reached("checkpoint.post")
        if self.on_written is not None:
            self.on_written(info)
        return info

    def _prune(self, written: CheckpointInfo) -> None:
        files = self._files
        if files is None:
            # The one listing: it already holds *written*.
            files = self._files = self.list_checkpoints(remove_tmp=True)
        else:
            files.insert(0, written)
        for info in files[self.keep :]:
            try:
                os.remove(info.path)
            except OSError:
                pass
        del files[self.keep :]

    # -- reading ------------------------------------------------------------

    def list_checkpoints(self, remove_tmp: bool = False) -> List[CheckpointInfo]:
        """Every checkpoint file present, newest first. With
        *remove_tmp*, also delete every ``ckpt-*.snap.tmp``: a write a
        kill cut off before its rename (the current one has renamed)."""
        if not os.path.isdir(self.state_dir):
            return []
        infos: List[CheckpointInfo] = []
        for name in os.listdir(self.state_dir):
            parsed = _parse_name(name)
            if parsed is None:
                if remove_tmp and name.endswith(TMP_SUFFIX) and _parse_name(name[: -len(TMP_SUFFIX)]):
                    try:
                        os.remove(os.path.join(self.state_dir, name))
                    except OSError:
                        pass
                continue
            path = os.path.join(self.state_dir, name)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            infos.append(
                CheckpointInfo(path=path, seq=parsed[0], now_ns=parsed[1], size_bytes=size)
            )
        infos.sort(key=lambda info: info.seq, reverse=True)
        return infos

    def latest_valid(self) -> Optional[Tuple[CheckpointInfo, dict]]:
        """Newest checkpoint that decodes cleanly, skipping damage.

        Also resynchronizes :attr:`seq` so post-recovery checkpoints
        never collide with surviving files.

        Raises:
            ForeignSnapshotError: a checkpoint of another envelope
                version, naming its file.
        """
        skipped = 0
        for info in self.list_checkpoints():
            self.seq = max(self.seq, info.seq)
            try:
                with open(info.path, "rb") as handle:
                    state = decode_snapshot(handle.read())
            except ForeignSnapshotError as exc:
                raise ForeignSnapshotError(f"{info.path}: {exc}") from None
            except (SnapshotError, OSError):
                skipped += 1
                continue
            self.corrupt_skipped = skipped
            return info, state
        self.corrupt_skipped = skipped
        return None
