"""The TSDB's durable image: a write-ahead log with idempotent replay.

The measurement store is in-memory; a kill -9 takes every point with
it. One invariant makes it durable: **the store is always
``replay(log)``**. Every write batch — one analytics poll's points, so
a poll is one frame, one flush, one fsync: group commit — is appended
here *before* the store applies it and no checkpoint truncates the log,
so a checkpoint carries only the store's position in it (a batch-id
high-water mark) and any kept checkpoint pairs with the same log.

Exactly-once is an accounting argument, not a hope:

* every batch carries a **monotonic batch id** assigned by
  :class:`DurableTsdb`;
* replay applies only ids *above* what the in-memory store already
  holds (0 in a fresh process) and counts the rest as
  ``duplicates_skipped`` — a batch can never land twice; ids above the
  checkpoint's ``last_applied_batch_id`` are the re-applied loss window;
* a write the store *rejected* (fault-injected outage) appends an
  **abort record** for its id, so replay does not resurrect batches
  the retry machinery re-submitted under a later id.

What bounds the log is what bounds the store: retention **compacts**
it (surviving frames to ``<path>.tmp``, then ``os.replace``) whenever
it has dropped as many points as the store still holds since the last
rewrite — amortised O(1) per point. Damage is expected, not fatal: a
torn tail (a crash mid-append; that batch never reached the store
either) ends replay cleanly and recovery cuts it off, and a frame whose
CRC fails between intact ones costs that one batch, counted.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Callable, Iterable, List, Optional, Tuple

from repro.tsdb.line_protocol import format_point, parse_line
from repro.tsdb.point import Point

WAL_MAGIC = b"RWAL"
_RECORD_DATA = 0
_RECORD_ABORT = 1
# magic | type(1) | batch_id(8) | payload_len(4) | crc32(4)
_FRAME = struct.Struct("!4sBQII")


def _frame(record_type: int, batch_id: int, payload: bytes) -> bytes:
    return (
        _FRAME.pack(WAL_MAGIC, record_type, batch_id, len(payload), zlib.crc32(payload))
        + payload
    )


class WalError(ValueError):
    """The log is unusable (not a torn tail — structural damage)."""


class WriteAheadLog:
    """Framed, CRC-guarded append log of point batches.

    Args:
        path: backing file; created on first append.
        fsync: call ``os.fsync`` after every append. The recovery
            tests simulate crashes in-process, where a flush suffices;
            real deployments pay the fsync.
    """

    def __init__(self, path: str, fsync: bool = False):
        self.path = str(path)
        self.fsync = fsync
        self._file = None
        self.appends = 0
        self.aborts = 0
        self.compactions = 0

    # -- writing ------------------------------------------------------------

    def _handle(self):
        if self._file is None:
            self._file = open(self.path, "ab")
        return self._file

    def _append_frame(self, record_type: int, batch_id: int, payload: bytes) -> None:
        handle = self._handle()
        handle.write(_frame(record_type, batch_id, payload))
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())

    def append(self, batch_id: int, points: Iterable[Point]) -> int:
        """Log one batch before the store sees it; returns bytes written."""
        payload = "\n".join([format_point(p) for p in points]).encode("utf-8")
        self._append_frame(_RECORD_DATA, batch_id, payload)
        self.appends += 1
        return _FRAME.size + len(payload)

    def append_abort(self, batch_id: int) -> None:
        """Compensation record: the store rejected this batch, so a
        later replay must not apply it (the retry queue owns it now)."""
        self._append_frame(_RECORD_ABORT, batch_id, b"")
        self.aborts += 1

    def sync(self) -> None:
        """Flush (and fsync) any buffered frames — the drain path."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def compact(self, keep: Callable[[bytes], bool] = lambda line: True) -> None:
        """Rewrite the log atomically, keeping what a replay would apply.

        Intact data frames survive under their own batch ids with the
        (still encoded) lines *keep* accepts; aborted batches, abort
        records, damaged frames and a torn tail do not. A failure
        before the final ``os.replace`` leaves the old log as it was.
        """
        frames, _, _ = self._scan()
        aborted = {batch_id for kind, batch_id, _ in frames if kind == _RECORD_ABORT}
        kept = []
        for kind, batch_id, payload in frames:
            if kind == _RECORD_DATA and batch_id not in aborted:
                payload = b"\n".join(
                    [line for line in payload.split(b"\n") if line and keep(line)]
                )
                if payload:
                    kept.append((batch_id, payload))
        self.close()
        tmp_path = self.path + ".tmp"
        with open(tmp_path, "wb") as handle:
            handle.write(
                b"".join(_frame(_RECORD_DATA, batch_id, payload) for batch_id, payload in kept)
            )
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)
        self.compactions += 1

    # -- replay -------------------------------------------------------------

    def _scan(self) -> Tuple[List[Tuple[int, int, bytes]], int, bool]:
        """Every intact frame as (type, batch id, payload), the count of
        damaged frames skipped, and whether the log ends in a torn tail."""
        frames: List[Tuple[int, int, bytes]] = []
        damaged = 0
        if not os.path.exists(self.path):
            return frames, damaged, False
        with open(self.path, "rb") as handle:
            data = handle.read()
        offset = 0
        while len(data) - offset >= _FRAME.size:
            magic, record_type, batch_id, length, crc = _FRAME.unpack_from(data, offset)
            if magic != WAL_MAGIC:
                raise WalError(
                    f"bad frame magic at offset {offset}: {magic!r}"
                )
            end = offset + _FRAME.size + length
            payload = data[offset + _FRAME.size : end]
            if len(payload) < length or zlib.crc32(payload) != crc:
                # A flipped bit costs this frame only if its length
                # still lands on the next one; the last frame, or a
                # length that points nowhere, is where the log ends.
                if data[end : end + len(WAL_MAGIC)] != WAL_MAGIC:
                    break
                damaged += 1
            elif record_type in (_RECORD_DATA, _RECORD_ABORT):
                frames.append((record_type, batch_id, payload))
            else:
                raise WalError(f"unknown record type {record_type}")
            offset = end
        return frames, damaged, offset < len(data)

    def replay(self) -> "WalReplay":
        """Read the log back; tolerant of a torn tail and of damaged
        frames between intact ones."""
        frames, damaged, torn_tail = self._scan()
        batches: List[Tuple[int, List[Point]]] = []
        aborted = set()
        for record_type, batch_id, payload in frames:
            if record_type == _RECORD_ABORT:
                aborted.add(batch_id)
            else:
                points = [
                    parse_line(line)
                    for line in payload.decode("utf-8").splitlines()
                    if line
                ]
                batches.append((batch_id, points))
        return WalReplay(
            batches=batches,
            aborted_ids=aborted,
            torn_tail=torn_tail,
            damaged_frames=damaged,
        )


class WalReplay:
    """The decoded contents of one log, ready to re-apply."""

    def __init__(
        self,
        batches: List[Tuple[int, List[Point]]],
        aborted_ids: set,
        torn_tail: bool,
        damaged_frames: int = 0,
    ):
        self.batches = batches
        self.aborted_ids = aborted_ids
        self.torn_tail = torn_tail
        self.damaged_frames = damaged_frames

    @property
    def max_batch_id(self) -> int:
        ids = [batch_id for batch_id, _ in self.batches]
        ids.extend(self.aborted_ids)
        return max(ids, default=0)

    def live_batches(self, after_batch_id: int) -> List[Tuple[int, List[Point]]]:
        """Batches that must apply: above the given high-water mark and
        never aborted."""
        return [
            (batch_id, points)
            for batch_id, points in self.batches
            if batch_id > after_batch_id and batch_id not in self.aborted_ids
        ]


class DurableTsdb:
    """TSDB wrapper: every batch goes through the WAL first.

    Drop-in where a ``TimeSeriesDatabase`` (or a flaky wrapper around
    one) is expected — reads and queries delegate untouched; only
    ``write``/``write_batch`` gain the log-then-apply discipline and
    the monotonic batch ids that make replay idempotent.
    """

    def __init__(self, inner, wal: WriteAheadLog, crash_schedule=None):
        self.inner = inner
        self.wal = wal
        self.crash_schedule = crash_schedule
        self.next_batch_id = 1
        #: The mark a checkpoint records (and ``load_state`` restores).
        self.last_applied_batch_id = 0
        #: The highest batch id the in-memory store itself holds — 0 in
        #: a fresh process whatever checkpoint it loaded; where replay
        #: starts.
        self.store_watermark = 0
        self.duplicates_skipped = 0
        self.wal_bytes = 0
        self.replayed_batches = 0
        self.replayed_points = 0
        self.expired_dropped = 0
        self.damaged_frames = 0
        self._expired_since_compaction = 0

    def _reached(self, point: str) -> None:
        if self.crash_schedule is not None:
            self.crash_schedule.reached(point)

    def write(self, point: Point) -> None:
        self.write_batch([point])

    def write_batch(self, points) -> int:
        points = list(points)
        if not points:
            return 0
        batch_id = self.next_batch_id
        self._reached("tsdb.wal.pre")
        self.wal_bytes += self.wal.append(batch_id, points)
        self.next_batch_id = batch_id + 1
        self._reached("tsdb.wal.post")
        try:
            count = self.inner.write_batch(points)
        except BaseException:
            # The store rejected the batch (fault injection) or the
            # process is crashing. Either way the logged intent must
            # not replay: on rejection the retry queue re-submits the
            # points under a fresh id; on a crash the abort never hits
            # the disk and replay correctly applies the batch.
            self.wal.append_abort(batch_id)
            raise
        self.last_applied_batch_id = self.store_watermark = batch_id
        self._reached("tsdb.applied")
        return count

    # -- recovery -----------------------------------------------------------

    def replay_wal(self, now_ns: Optional[int] = None) -> "WalReplay":
        """Rebuild the store from the log.

        Every live batch above :attr:`store_watermark` is applied —
        straight to the store, so a recovery rolls no fault dice — and
        those above ``last_applied_batch_id`` (restored from the
        checkpoint) are counted as the re-applied loss window. Batches
        the store already holds are counted as duplicates and skipped —
        the no-double-write guarantee. With *now_ns* given, retention
        policies run afterwards so points already past retention are
        dropped instead of resurrected, and the drop is counted.
        """
        replay = self.wal.replay()
        if replay.torn_tail:
            # Later appends must start on a frame boundary.
            self.wal.compact()
        self.damaged_frames = replay.damaged_frames
        held = self.store_watermark
        self.duplicates_skipped += sum(
            1 for batch_id, _ in replay.batches if batch_id <= held
        )
        write = self.inner.storage.write_batch
        for batch_id, points in replay.live_batches(held):
            write(points)
            if batch_id > self.last_applied_batch_id:
                self.replayed_batches += 1
                self.replayed_points += len(points)
            self.store_watermark = batch_id
        self.last_applied_batch_id = max(self.last_applied_batch_id, self.store_watermark)
        self.next_batch_id = max(self.next_batch_id, replay.max_batch_id + 1)
        if now_ns is not None:
            self.expired_dropped += self.enforce_retention(now_ns)
        return replay

    def enforce_retention(self, now_ns: int) -> int:
        """Run the inner store's retention; once it has dropped as many
        points as the store still holds since the log was last
        rewritten, compact the log too — so the log stays within twice
        the live store at amortised O(1) per point, with no setting."""
        dropped = self.inner.enforce_retention(now_ns)
        self._expired_since_compaction += dropped
        if dropped and self._expired_since_compaction >= self.inner.total_points():
            self.compact(now_ns)
        return dropped

    def compact(self, now_ns: int) -> None:
        """Rewrite the log down to the lines retention keeps at *now_ns*
        (the same ``ts >= cutoff`` rule as ``Series.truncate_before``)."""
        cutoffs: dict = {}
        for policy in self.inner.retention_policies:
            cutoff = now_ns - policy.duration_ns
            cutoffs[policy.measurement] = max(cutoff, cutoffs.get(policy.measurement, cutoff))
        store_wide = cutoffs.pop(None, None)

        def keep(line: bytes) -> bool:
            timestamp_ns = int(line.rsplit(b" ", 1)[1])
            if store_wide is not None and timestamp_ns < store_wide:
                return False
            return not cutoffs or timestamp_ns >= cutoffs.get(
                parse_line(line.decode("utf-8")).measurement, timestamp_ns
            )

        self.wal.compact(keep=keep)
        self._expired_since_compaction = 0

    # -- durability ---------------------------------------------------------

    def state_dict(self) -> dict:
        """The wrapper's own counters for the checkpoint — the store's
        position in the log, which is the store's durable image."""
        return {
            "next_batch_id": self.next_batch_id,
            "last_applied_batch_id": self.last_applied_batch_id,
            "duplicates_skipped": self.duplicates_skipped,
            "wal_bytes": self.wal_bytes,
        }

    def load_state(self, state: dict) -> None:
        self.next_batch_id = int(state["next_batch_id"])
        self.last_applied_batch_id = int(state["last_applied_batch_id"])
        self.duplicates_skipped = int(state["duplicates_skipped"])
        self.wal_bytes = int(state["wal_bytes"])

    def __getattr__(self, name):
        return getattr(self.inner, name)
