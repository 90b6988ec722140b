"""WAL tests: framing, torn tails, abort records, idempotent replay,
and the retention-at-replay rule (expired points stay gone)."""

import os

import pytest

from repro.durability.wal import _FRAME, DurableTsdb, WalError, WriteAheadLog
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.point import Point
from repro.tsdb.retention import RetentionPolicy

NS_PER_S = 1_000_000_000


def pt(ts_ns, value=1.0, tag="NZ-US"):
    return Point(
        measurement="latency",
        timestamp_ns=ts_ns,
        tags={"pair": tag},
        fields={"total_ms": value},
    )


class TestFraming:
    def test_append_replay_round_trip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(1, [pt(10), pt(20)])
        wal.append(2, [pt(30)])
        wal.close()
        replay = wal.replay()
        assert [bid for bid, _ in replay.batches] == [1, 2]
        assert [len(points) for _, points in replay.batches] == [2, 1]
        assert not replay.torn_tail
        assert replay.max_batch_id == 2

    def test_missing_file_is_empty(self, tmp_path):
        replay = WriteAheadLog(str(tmp_path / "absent.wal")).replay()
        assert replay.batches == [] and not replay.torn_tail

    @pytest.mark.parametrize("cut", [1, 5, 10, 21])
    def test_torn_tail_tolerated(self, tmp_path, cut):
        path = tmp_path / "t.wal"
        wal = WriteAheadLog(str(path))
        wal.append(1, [pt(10)])
        wal.append(2, [pt(20)])
        wal.close()
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut])
        replay = WriteAheadLog(str(path)).replay()
        assert replay.torn_tail
        # The torn frame never reached the store either, so losing it
        # is correct; everything before it survives intact.
        assert [bid for bid, _ in replay.batches] == [1]

    def test_structural_damage_raises(self, tmp_path):
        path = tmp_path / "t.wal"
        path.write_bytes(b"NOTAWALFILE-----" * 4)
        with pytest.raises(WalError):
            WriteAheadLog(str(path)).replay()


class TestAbortRecords:
    def test_aborted_batch_never_replays(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append(1, [pt(10)])
        wal.append(2, [pt(20)])
        wal.append_abort(2)
        wal.append(3, [pt(30)])
        wal.close()
        replay = wal.replay()
        assert replay.aborted_ids == {2}
        assert [bid for bid, _ in replay.live_batches(0)] == [1, 3]

    def test_live_batches_respects_high_water_mark(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        for batch_id in (1, 2, 3, 4):
            wal.append(batch_id, [pt(batch_id * 10)])
        replay = wal.replay()
        assert [bid for bid, _ in replay.live_batches(2)] == [3, 4]


class _RejectingStore:
    """Inner store that rejects every Nth batch, like the brownout."""

    def __init__(self, inner, reject_every=2):
        self.inner = inner
        self.reject_every = reject_every
        self.calls = 0

    def write_batch(self, points):
        self.calls += 1
        if self.calls % self.reject_every == 0:
            raise IOError("injected outage")
        return self.inner.write_batch(points)

    def __getattr__(self, name):
        return getattr(self.inner, name)


class TestDurableTsdb:
    def test_monotonic_batch_ids(self, tmp_path):
        db = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(str(tmp_path / "t.wal")))
        db.write_batch([pt(10)])
        db.write_batch([pt(20)])
        assert db.last_applied_batch_id == 2
        assert db.next_batch_id == 3

    def test_replay_restores_uncovered_batches(self, tmp_path):
        path = str(tmp_path / "t.wal")
        first = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(path))
        first.write_batch([pt(10), pt(20)])
        first.write_batch([pt(30)])
        first.wal.close()

        # "Restart": fresh (empty) store, checkpoint knew about batch 1
        # only. The log is the store's image, so both batches are
        # applied; only the one above the mark is the loss window.
        second = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(path))
        second.last_applied_batch_id = 1
        second.replay_wal()
        assert second.replayed_batches == 1
        assert second.replayed_points == 1
        assert second.duplicates_skipped == 0
        assert second.inner.total_points() == 3
        assert second.last_applied_batch_id == 2
        assert second.next_batch_id == 3

    def test_replay_is_idempotent(self, tmp_path):
        path = str(tmp_path / "t.wal")
        first = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(path))
        first.write_batch([pt(10)])
        first.write_batch([pt(20)])
        first.wal.close()

        second = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(path))
        second.replay_wal()
        points_after_first = second.inner.total_points()
        second.replay_wal()  # must be a no-op
        assert second.inner.total_points() == points_after_first
        assert second.replayed_batches == 2
        assert second.duplicates_skipped == 2

    def test_rejected_write_appends_abort_and_raises(self, tmp_path):
        path = str(tmp_path / "t.wal")
        store = _RejectingStore(TimeSeriesDatabase(), reject_every=2)
        db = DurableTsdb(store, WriteAheadLog(path))
        db.write_batch([pt(10)])
        with pytest.raises(IOError):
            db.write_batch([pt(20)])
        db.wal.close()
        # The retry machinery re-submits the rejected points under a
        # fresh id; replay must not ALSO apply the logged original.
        db.write_batch([pt(20)])
        db.wal.close()

        recovered = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(path))
        recovered.replay_wal()
        assert recovered.inner.total_points() == 2  # not 3

    def test_state_round_trip(self, tmp_path):
        db = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(str(tmp_path / "t.wal")))
        db.write_batch([pt(10)])
        state = db.state_dict()
        fresh = DurableTsdb(
            TimeSeriesDatabase(), WriteAheadLog(str(tmp_path / "u.wal"))
        )
        fresh.load_state(state)
        assert fresh.last_applied_batch_id == db.last_applied_batch_id
        assert fresh.next_batch_id == db.next_batch_id


class TestRetentionAtReplay:
    """Satellite: WAL replay must not resurrect expired points."""

    def test_expired_points_dropped_not_resurrected(self, tmp_path):
        path = str(tmp_path / "t.wal")
        first = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(path))
        first.write_batch([pt(1 * NS_PER_S), pt(2 * NS_PER_S)])  # will expire
        first.write_batch([pt(59 * NS_PER_S)])  # still in window
        first.wal.close()

        store = TimeSeriesDatabase()
        store.add_retention_policy(RetentionPolicy(duration_ns=30 * NS_PER_S))
        recovered = DurableTsdb(store, WriteAheadLog(path))
        recovered.replay_wal(now_ns=60 * NS_PER_S)
        assert recovered.expired_dropped == 2
        assert store.total_points() == 1
        timestamps = [
            int(line.rsplit(" ", 1)[1]) for line in store.dump_lines()
        ]
        assert all(ts >= 30 * NS_PER_S for ts in timestamps)

    def test_replay_without_clock_skips_retention(self, tmp_path):
        path = str(tmp_path / "t.wal")
        first = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(path))
        first.write_batch([pt(1 * NS_PER_S)])
        first.wal.close()
        store = TimeSeriesDatabase()
        store.add_retention_policy(RetentionPolicy(duration_ns=30 * NS_PER_S))
        recovered = DurableTsdb(store, WriteAheadLog(path))
        recovered.replay_wal()
        assert recovered.expired_dropped == 0
        assert store.total_points() == 1


def _frame_offsets(data):
    """Start offset of every frame in a well-formed log."""
    offsets, offset = [], 0
    while offset < len(data):
        offsets.append(offset)
        offset += _FRAME.size + _FRAME.unpack_from(data, offset)[3]
    return offsets


class TestDamagedFrames:
    """One flipped bit costs one batch, not the tail of the store: the
    log is the store's only image and holds everything, not one second."""

    def _log(self, tmp_path, batches=4):
        path = tmp_path / "t.wal"
        wal = WriteAheadLog(str(path))
        for batch_id in range(1, batches + 1):
            wal.append(batch_id, [pt(batch_id * 10), pt(batch_id * 10 + 1)])
        wal.close()
        return path

    def test_flipped_payload_byte_costs_that_batch_only(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        data[_frame_offsets(data)[1] + _FRAME.size + 3] ^= 0x01
        path.write_bytes(bytes(data))
        replay = WriteAheadLog(str(path)).replay()
        assert [bid for bid, _ in replay.batches] == [1, 3, 4]
        assert replay.damaged_frames == 1
        assert not replay.torn_tail

    def test_damaged_last_frame_is_a_torn_tail(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        replay = WriteAheadLog(str(path)).replay()
        assert [bid for bid, _ in replay.batches] == [1, 2, 3]
        assert replay.torn_tail and replay.damaged_frames == 0

    def test_length_that_lands_nowhere_ends_the_replay(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        # Low byte of frame 2's length field (magic 4 + type 1 + id 8).
        data[_frame_offsets(data)[1] + 4 + 1 + 8 + 3] ^= 0x04
        path.write_bytes(bytes(data))
        replay = WriteAheadLog(str(path)).replay()
        assert [bid for bid, _ in replay.batches] == [1]
        assert replay.torn_tail and replay.damaged_frames == 0

    def test_bad_magic_at_a_frame_start_stays_structural(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        data[_frame_offsets(data)[2]] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(WalError, match="bad frame magic"):
            WriteAheadLog(str(path)).replay()

    def test_recovery_counts_the_damage_and_loses_one_batch(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        data[_frame_offsets(data)[2] + _FRAME.size] ^= 0x80
        path.write_bytes(bytes(data))
        recovered = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(str(path)))
        recovered.replay_wal()
        assert recovered.damaged_frames == 1
        assert recovered.inner.total_points() == 6
        assert recovered.next_batch_id == 5


class TestCompaction:
    def test_keeps_live_frames_under_their_own_ids(self, tmp_path):
        path = tmp_path / "t.wal"
        wal = WriteAheadLog(str(path))
        wal.append(1, [pt(10), pt(50)])
        wal.append(2, [pt(20)])
        wal.append_abort(2)
        wal.append(3, [pt(30)])  # every line filtered: the frame goes
        wal.append(4, [pt(60)])
        size_before = path.stat().st_size
        wal.compact(keep=lambda line: int(line.rsplit(b" ", 1)[1]) >= 40)
        replay = wal.replay()
        assert [
            (bid, [p.timestamp_ns for p in points])
            for bid, points in replay.batches
        ] == [(1, [50]), (4, [60])]
        assert replay.aborted_ids == set()
        assert wal.compactions == 1
        assert path.stat().st_size < size_before
        # The append handle follows the rename.
        wal.append(5, [pt(70)])
        wal.close()
        assert [bid for bid, _ in wal.replay().batches] == [1, 4, 5]

    def test_a_failed_rename_leaves_the_old_log(self, tmp_path, monkeypatch):
        path = tmp_path / "t.wal"
        wal = WriteAheadLog(str(path))
        wal.append(1, [pt(10)])
        wal.append(2, [pt(50)])
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            wal.compact(keep=lambda line: False)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert wal.compactions == 0
        wal.append(3, [pt(60)])  # and the log still takes appends
        wal.close()
        assert [bid for bid, _ in wal.replay().batches] == [1, 2, 3]

    def test_a_torn_tail_is_cut_so_later_appends_replay(self, tmp_path):
        """Recovery appends after whatever the dead process left; a
        partial frame left in place would swallow every later one."""
        path = tmp_path / "t.wal"
        first = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(str(path)))
        first.write_batch([pt(10)])
        first.write_batch([pt(20)])
        first.wal.close()
        path.write_bytes(path.read_bytes()[:-5])

        second = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(str(path)))
        assert second.replay_wal().torn_tail
        assert second.inner.total_points() == 1
        second.write_batch([pt(30)])
        second.wal.close()

        third = DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(str(path)))
        replay = third.replay_wal()
        assert not replay.torn_tail
        assert [bid for bid, _ in replay.batches] == [1, 2]
        assert third.inner.total_points() == 2


class TestStoreIsReplayOfLog:
    """The tentpole's invariant at the wrapper: the log is the store's
    only durable image, bounded by retention through compaction."""

    def _durable(self, path, retention_s=None, measurement=None):
        store = TimeSeriesDatabase()
        if retention_s is not None:
            store.add_retention_policy(
                RetentionPolicy(
                    duration_ns=retention_s * NS_PER_S, measurement=measurement
                )
            )
        return DurableTsdb(store, WriteAheadLog(str(path)))

    def test_replay_goes_past_a_wrapper_that_rejects_writes(self, tmp_path):
        path = tmp_path / "t.wal"
        first = self._durable(path)
        first.write_batch([pt(10), pt(20)])
        first.wal.close()
        outage = _RejectingStore(TimeSeriesDatabase(), reject_every=1)
        recovered = DurableTsdb(outage, WriteAheadLog(str(path)))
        recovered.replay_wal()
        assert outage.calls == 0
        assert outage.inner.total_points() == 2

    def test_retention_keeps_the_log_within_twice_the_live_lines(self, tmp_path):
        path = tmp_path / "t.wal"
        db = self._durable(path, retention_s=5)
        worst = 0.0
        for second in range(1, 61):
            db.write_batch([pt(second * NS_PER_S + i, tag=f"p{i}") for i in range(7)])
            db.enforce_retention(second * NS_PER_S)
            logged = sum(len(points) for _, points in db.wal.replay().batches)
            worst = max(worst, logged / db.inner.total_points())
        assert db.wal.compactions >= 5
        assert worst <= 2.0
        # ... and still replays to the live store.
        db.wal.close()
        recovered = self._durable(path, retention_s=5)
        recovered.replay_wal(now_ns=60 * NS_PER_S)
        assert sorted(recovered.inner.dump_lines()) == sorted(db.inner.dump_lines())

    def test_compaction_follows_a_measurement_scoped_policy(self, tmp_path):
        path = tmp_path / "t.wal"
        db = self._durable(path, retention_s=5, measurement="latency")
        other = Point("loss", 1 * NS_PER_S, fields={"ratio": 0.5})
        db.write_batch([pt(1 * NS_PER_S), other, pt(9 * NS_PER_S)])
        db.compact(now_ns=10 * NS_PER_S)
        (_, points), = db.wal.replay().batches
        assert points == [other, pt(9 * NS_PER_S)]
