"""Checkpointer tests: cadence, atomicity, pruning, corruption fallback."""

import os
import re

import pytest

from repro.durability.checkpoint import Checkpointer
from repro.durability.codec import ForeignSnapshotError, decode_snapshot
from repro.faults.crashpoints import CrashSchedule, SimulatedCrash

NS_PER_S = 1_000_000_000


def make(tmp_path, state=None, **kwargs):
    state = state if state is not None else {"value": 7}
    return Checkpointer(str(tmp_path / "state"), capture=lambda: dict(state), **kwargs)


class TestCadence:
    def test_first_checkpoint_is_due_immediately(self, tmp_path):
        ckpt = make(tmp_path, interval_ns=NS_PER_S)
        assert ckpt.due(0)
        assert ckpt.maybe_checkpoint(0) is not None

    def test_interval_respected(self, tmp_path):
        ckpt = make(tmp_path, interval_ns=NS_PER_S)
        ckpt.checkpoint(0)
        assert ckpt.maybe_checkpoint(NS_PER_S // 2) is None
        assert ckpt.maybe_checkpoint(NS_PER_S) is not None
        assert ckpt.checkpoints_written == 2

    def test_invalid_args_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make(tmp_path, interval_ns=0)
        with pytest.raises(ValueError):
            make(tmp_path, keep=0)


class TestAtomicity:
    def test_no_tmp_left_behind(self, tmp_path):
        ckpt = make(tmp_path)
        ckpt.checkpoint(123)
        names = os.listdir(ckpt.state_dir)
        assert len(names) == 1
        assert not any(name.endswith(".tmp") for name in names)

    def test_file_decodes_to_captured_state(self, tmp_path):
        ckpt = make(tmp_path, state={"flows": [1, 2, 3]})
        info = ckpt.checkpoint(5 * NS_PER_S, clean=True)
        with open(info.path, "rb") as handle:
            state = decode_snapshot(handle.read())
        assert state["flows"] == [1, 2, 3]
        assert state["checkpoint"] == {
            "now_ns": 5 * NS_PER_S,
            "clean": True,
            "seq": 1,
        }

    def test_on_written_called_with_info(self, tmp_path):
        seen = []
        ckpt = Checkpointer(
            str(tmp_path / "s"), capture=dict, on_written=seen.append
        )
        info = ckpt.checkpoint(0)
        assert seen == [info]


class TestPruning:
    def test_keep_bounds_files(self, tmp_path):
        ckpt = make(tmp_path, keep=2)
        for step in range(5):
            ckpt.checkpoint(step * NS_PER_S)
        infos = ckpt.list_checkpoints()
        assert [info.seq for info in infos] == [5, 4]

    def test_a_tmp_a_kill_orphaned_is_removed(self, tmp_path):
        """A kill between the tmp write and its rename leaves a
        uniquely named ``.tmp`` no later checkpoint would overwrite."""
        ckpt = make(tmp_path, keep=2)
        ckpt.checkpoint(1 * NS_PER_S)
        orphan = os.path.join(ckpt.state_dir, "ckpt-2-2.snap.tmp")
        with open(orphan, "wb") as handle:
            handle.write(b"half a checkpoint")
        bystander = os.path.join(ckpt.state_dir, "tsdb.wal.tmp")
        open(bystander, "wb").close()
        resumed = make(tmp_path, keep=2)
        resumed.latest_valid()
        for step in range(2, 7):
            resumed.checkpoint(step * NS_PER_S)
        assert sorted(os.listdir(ckpt.state_dir)) == [
            "ckpt-5-5000000000.snap", "ckpt-6-6000000000.snap", "tsdb.wal.tmp",
        ]

    def test_latest_valid_returns_newest(self, tmp_path):
        ckpt = make(tmp_path, keep=3)
        for step in range(3):
            ckpt.checkpoint(step * NS_PER_S)
        found = ckpt.latest_valid()
        assert found is not None
        info, state = found
        assert info.seq == 3
        assert state["checkpoint"]["seq"] == 3


class TestCorruptionFallback:
    def test_torn_newest_falls_back_to_previous(self, tmp_path):
        ckpt = make(tmp_path, keep=3)
        ckpt.checkpoint(1 * NS_PER_S)
        newest = ckpt.checkpoint(2 * NS_PER_S)
        blob = open(newest.path, "rb").read()
        with open(newest.path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])

        reader = make(tmp_path, keep=3)
        found = reader.latest_valid()
        assert found is not None
        assert found[0].seq == 1
        assert reader.corrupt_skipped == 1

    def test_all_corrupt_means_cold_start(self, tmp_path):
        ckpt = make(tmp_path, keep=3)
        for step in range(2):
            info = ckpt.checkpoint(step * NS_PER_S)
            with open(info.path, "wb") as handle:
                handle.write(b"garbage")
        reader = make(tmp_path, keep=3)
        assert reader.latest_valid() is None
        assert reader.corrupt_skipped == 2

    def test_empty_dir_means_cold_start(self, tmp_path):
        assert make(tmp_path).latest_valid() is None

    def test_a_foreign_version_stops_the_walk(self, tmp_path):
        """An intact envelope of another version is a state this build
        cannot read, not damage: skipping it would cold-start a run that
        has checkpoints."""
        ckpt = make(tmp_path, keep=3)
        ckpt.checkpoint(1 * NS_PER_S)
        newest = ckpt.checkpoint(2 * NS_PER_S)
        blob = bytearray(open(newest.path, "rb").read())
        blob[8] = 1  # the JSON era's envelope version
        with open(newest.path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(ForeignSnapshotError, match=re.escape(newest.path)):
            make(tmp_path, keep=3).latest_valid()

    def test_a_foreign_file_behind_a_valid_one_is_not_read(self, tmp_path):
        ckpt = make(tmp_path, keep=3)
        older = ckpt.checkpoint(1 * NS_PER_S)
        ckpt.checkpoint(2 * NS_PER_S)
        with open(older.path, "wb") as handle:
            handle.write(b"RURUSNAP\x01" + bytes(16))
        found = make(tmp_path, keep=3).latest_valid()
        assert found is not None and found[0].seq == 2

    def test_seq_resyncs_past_survivors(self, tmp_path):
        ckpt = make(tmp_path, keep=3)
        for step in range(3):
            ckpt.checkpoint(step * NS_PER_S)
        reader = make(tmp_path, keep=3)
        reader.latest_valid()
        info = reader.checkpoint(10 * NS_PER_S)
        assert info.seq == 4  # never collides with survivors


class TestCrashInstrumentation:
    def test_checkpoint_mid_leaves_torn_file(self, tmp_path):
        schedule = CrashSchedule().arm("checkpoint.mid")
        ckpt = make(tmp_path, crash_schedule=schedule)
        with pytest.raises(SimulatedCrash):
            ckpt.checkpoint(0)
        # The torn file sits at the FINAL path — the non-atomic failure
        # the tmp+rename discipline normally prevents — and recovery
        # must skip it.
        assert len(os.listdir(ckpt.state_dir)) == 1
        assert make(tmp_path).latest_valid() is None

    def test_checkpoint_post_fires_before_on_written(self, tmp_path):
        truncations = []
        schedule = CrashSchedule().arm("checkpoint.post")
        ckpt = Checkpointer(
            str(tmp_path / "s"),
            capture=dict,
            crash_schedule=schedule,
            on_written=lambda info: truncations.append(info),
        )
        with pytest.raises(SimulatedCrash):
            ckpt.checkpoint(0)
        # Crash between the durable checkpoint and the WAL truncate:
        # the checkpoint file exists, the truncate never ran.
        assert truncations == []
        reader = Checkpointer(str(tmp_path / "s"), capture=dict)
        assert reader.latest_valid() is not None
