"""Kill-anywhere acceptance: every crash point, two profiles.

Each trial kills the durable runtime at one registered stage boundary,
recovers a fresh stack from the same state directory, resumes the
workload, and must end with (a) the reconciled ledger balanced with a
non-negative ``lost_at_crash``, (b) an idempotent WAL (a second replay
applies zero batches — the no-double-write proof), and (c) a clean
final checkpoint. Same triple → identical counts.
"""

import os
import re
import shutil

import pytest

from repro.cli import main
from repro.core import feed
from repro.durability.harness import RecoveryHarness, run_recovery_trial
from repro.durability.recovery import recover_runtime
from repro.durability.wal import _FRAME
from repro.faults.crashpoints import CRASH_POINTS, CrashSchedule, SimulatedCrash
from repro.faults.profiles import get_profile
from repro.resilience.invariants import Ledger
from repro.stack import builder
from tests.conftest import cli_spec, cli_stack

NS_PER_S = 1_000_000_000

# Small-but-busy: several checkpoints and a few hundred records per
# run, so every crash point lands in interesting state.
RUN = ("--duration", 6, "--rate", 30, "--queues", 2)

PROFILES = ("clean", "lossy-mq")


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_kill_anywhere(tmp_path, profile, point):
    harness = RecoveryHarness(
        cli_spec("recover", "--state-dir", tmp_path / "state", "--profile", profile, "--seed", 7, *RUN)
    )
    trial = harness.run_trial(point, hit=3)
    if not trial.crashed:
        # Boundaries crossed fewer than three times in this workload
        # (e.g. drain.mid runs once); the first pass must still fire.
        trial = harness.run_trial(point, hit=1)
    assert trial.crashed, f"{point} never fired"
    assert trial.ok, trial.render()
    assert trial.recovery.lost_at_crash >= 0
    assert trial.double_replay_applied == 0
    assert trial.final_ledger.ok
    assert trial.final_drain.ok


def test_trials_are_deterministic(tmp_path):
    harness = RecoveryHarness(
        cli_spec("recover", "--state-dir", tmp_path / "state", "--profile", "lossy-mq", "--seed", 11, *RUN)
    )
    first = harness.run_trial("analytics.ingest", hit=2)
    second = harness.run_trial("analytics.ingest", hit=2)
    assert first.ok and second.ok
    assert first.counts() == second.counts()


def test_crash_before_any_checkpoint_cold_starts(tmp_path):
    trial = run_recovery_trial(
        cli_spec("recover", "--state-dir", tmp_path / "state", "--profile", "clean", "--seed", 3, *RUN),
        "nic.rx",
        hit=1,
    )
    assert trial.crashed
    assert trial.recovery.cold_start
    assert trial.ok, trial.render()


def test_stale_wal_after_checkpoint_post_crash_dedups(tmp_path):
    """The crash right after a checkpoint lands: the log is never
    truncated, so nothing is stale and nothing needs dedup — every
    frame is at or below the mark just written, the store is rebuilt
    from the log, and the loss window is empty."""
    state_dir = str(tmp_path / "state")
    trial = run_recovery_trial(
        cli_spec("recover", "--state-dir", state_dir, "--profile", "clean", "--seed", 7, *RUN),
        "checkpoint.post",
        hit=2,
    )
    assert trial.crashed
    assert trial.recovery.replayed_batches == 0
    assert trial.recovery.duplicates_skipped == 0
    assert trial.recovery.lost_at_crash == 0
    assert trial.double_replay_applied == 0
    assert trial.ok, trial.render()
    # The resumed run's store equals an uncrashed run's: nothing lost,
    # nothing doubled.
    recovered = cli_stack("live", "--state-dir", state_dir, "--profile", "clean", "--seed", 7, *RUN)
    recover_runtime(recovered)
    twin = cli_stack("live", "--state-dir", tmp_path / "twin", "--profile", "clean", "--seed", 7, *RUN)
    twin.run()
    assert sorted(recovered.tsdb.inner.dump_lines()) == sorted(
        twin.tsdb.inner.dump_lines()
    )


def test_torn_checkpoint_falls_back(tmp_path):
    """checkpoint.mid leaves a torn blob at the final path; recovery
    must skip it and use the previous checkpoint."""
    trial = run_recovery_trial(
        cli_spec("recover", "--state-dir", tmp_path / "state", "--profile", "clean", "--seed", 7, *RUN),
        "checkpoint.mid",
        hit=2,
    )
    assert trial.crashed
    assert trial.recovery.corrupt_skipped >= 1
    assert not trial.recovery.cold_start
    assert trial.ok, trial.render()


def test_clean_shutdown_then_recover_is_lossless(tmp_path):
    state_dir = str(tmp_path / "state")
    runtime = cli_stack("live", "--state-dir", state_dir, "--profile", "clean", "--seed", 5, *RUN)
    drain = runtime.run()
    assert drain.ok
    processed = drain.ledger.processed
    lines = sorted(runtime.tsdb.inner.dump_lines())

    restarted = cli_stack("live", "--state-dir", state_dir, "--profile", "clean", "--seed", 5, *RUN)
    report = recover_runtime(restarted, observed_ingested=drain.ledger.ingested)
    assert report.ok, report.render()
    assert report.clean_shutdown
    assert report.lost_at_crash == 0
    assert report.replayed_batches == 0  # every frame is below the clean mark
    assert restarted.service.conservation_ledger().processed == processed
    # Every sample survives, byte for byte — nothing lost, nothing
    # doubled. (Counted as line-protocol samples: the restore path
    # round-trips through dump_lines, which splits multi-field points.)
    assert sorted(restarted.tsdb.inner.dump_lines()) == lines


def test_recovery_with_retention_does_not_resurrect(tmp_path):
    """Integration flavour of the retention satellite: a runtime with a
    short retention window recovers without points older than the
    window at the recovered clock."""
    harness = RecoveryHarness(
        cli_spec(
            "recover", "--state-dir", tmp_path / "state", "--profile", "clean",
            "--seed", 9, "--retention", 2, *RUN,
        )
    )
    trial = harness.run_trial("tsdb.applied", hit=20)
    if not trial.crashed:
        trial = harness.run_trial("tsdb.applied", hit=1)
    assert trial.ok, trial.render()


def test_unknown_crash_point_rejected(tmp_path):
    harness = RecoveryHarness(cli_spec("recover", "--state-dir", tmp_path / "state"))
    with pytest.raises(ValueError, match="unknown crash point"):
        harness.run_trial("no.such.point")


# -- the log is the store's durable image ------------------------------------


def _first_applied_after_brownout_begins(state_dir, profile, seed=42):
    """Which pass over ``tsdb.applied`` is the first at or after the
    profile's brown-out begins, read off an uncrashed run (the CLI's
    default workload). No write is applied *during* a brown-out, so it
    is the first one after the store comes back — and the checkpoint a
    crash there recovers from was cut inside the outage."""
    begins_ns = get_profile(profile).tsdb_brownout_start_ns
    schedule = CrashSchedule()  # unarmed: it only counts passes
    probe = cli_stack(
        "live", "--state-dir", state_dir, "--profile", profile, "--seed", seed,
        crash_schedule=schedule,
    )
    try:
        for batch in feed.batches(probe.packet_stream(), probe.pipeline.feed_batch):
            probe.process_batch(batch)
            if probe.now_ns >= begins_ns:
                return schedule.passes.get("tsdb.applied", 0) + 1
    finally:
        probe.wal.close()
    raise AssertionError(f"{profile}: the run ends before its brown-out begins")


def test_recovery_replays_past_the_fault_dice(tmp_path, capsys):
    """``ruru recover --trial tsdb.applied --profile tsdb-brownout
    --seed 42 --hit <first write after the outage>``: the recovered
    clock lands inside the brown-out, and replay used to write through
    the fault wrapper — an uncaught TsdbWriteError. Replay restores
    straight to the store."""
    hit = _first_applied_after_brownout_begins(tmp_path / "probe", "tsdb-brownout")
    code = main([
        "recover", "--state-dir", str(tmp_path / "state"),
        "--trial", "tsdb.applied", "--profile", "tsdb-brownout",
        "--seed", "42", "--hit", str(hit),
    ])
    out = capsys.readouterr().out
    assert code == 0, out
    recovered_at_s = float(re.search(r"checkpoint: seq=\d+ t=([\d.]+)s", out).group(1))
    assert 3.0 <= recovered_at_s < 5.0, out  # the profile's brown-out
    assert "double-replay applied: 0" in out
    assert out.rstrip().endswith("verdict: OK")


@pytest.mark.parametrize("profile", ["tsdb-brownout", "monsoon"])
def test_recovery_consumes_no_injector_decision(tmp_path, profile):
    state_dir = str(tmp_path / "state")
    hit = _first_applied_after_brownout_begins(tmp_path / "probe", profile)
    victim = cli_stack(
        "live", "--state-dir", state_dir, "--profile", profile, "--seed", 42,
        crash_schedule=CrashSchedule().arm("tsdb.applied", hit=hit),
    )
    with pytest.raises(SimulatedCrash):
        victim.run()
    victim.wal.close()

    survivor = cli_stack("live", "--state-dir", state_dir, "--profile", profile, "--seed", 42)
    decisions = []
    decide = survivor.injector.decide
    survivor.injector.decide = lambda *args: decisions.append(args) or decide(*args)
    rng_before = survivor.injector.rng("tsdb").getstate()
    report = recover_runtime(survivor)
    assert report.replayed_batches > 0
    assert decisions == []
    assert survivor.injector.rng("tsdb").getstate() == rng_before
    assert survivor.injector.total_injected() == 0


def _second_replay_applies_nothing(stack):
    """Read off the store, not the loss-window counters: a batch at or
    below the checkpoint's mark applied twice would move only the store."""
    before = sorted(stack.tsdb.inner.dump_lines())
    stack.tsdb.replay_wal(now_ns=stack.now_ns)
    return sorted(stack.tsdb.inner.dump_lines()) == before


def _run_to_kill(state_dir, point, hit, *flags):
    """A durable run killed at (*point*, *hit*); returns the dead stack."""
    victim = cli_stack(
        "live", "--state-dir", state_dir, "--profile", "clean", "--seed", 7, *RUN, *flags,
        crash_schedule=CrashSchedule().arm(point, hit=hit),
    )
    with pytest.raises(SimulatedCrash):
        victim.run()
    victim.wal.close()
    return victim


def test_any_kept_checkpoint_pairs_with_the_same_log(tmp_path):
    """The newest checkpoint and the keep=2 fallback both recover the
    whole store: the log is never truncated, so neither needs a
    particular slice of it. (At the parent a newest checkpoint damaged
    *after* its truncate lost everything between the two.)"""
    state_dir = tmp_path / "state"
    victim = _run_to_kill(str(state_dir), "analytics.ingest", hit=5)
    held = sorted(victim.tsdb.inner.dump_lines())
    fallback_dir = tmp_path / "fallback"
    shutil.copytree(state_dir, fallback_dir)
    newest = max(
        (name for name in os.listdir(fallback_dir) if name.endswith(".snap")),
        key=lambda name: int(name.split("-")[1]),
    )
    (fallback_dir / newest).write_bytes(b"bit rot")

    reports = {}
    for label, directory in (("newest", state_dir), ("fallback", fallback_dir)):
        stack = cli_stack("live", "--state-dir", directory, "--profile", "clean", "--seed", 7, *RUN)
        reports[label] = recover_runtime(stack)
        assert reports[label].ok, reports[label].render()
        assert sorted(stack.tsdb.inner.dump_lines()) == held
        assert _second_replay_applies_nothing(stack)
        stack.wal.close()
    assert reports["fallback"].corrupt_skipped == 1
    assert reports["fallback"].checkpoint.seq < reports["newest"].checkpoint.seq
    # The older mark leaves a longer re-applied loss window.
    assert reports["fallback"].replayed_batches > reports["newest"].replayed_batches


def test_both_kept_checkpoints_recover_after_a_real_compaction(tmp_path):
    state_dir = str(tmp_path / "state")
    victim = _run_to_kill(state_dir, "analytics.ingest", 6, "--retention", 1)
    assert victim.wal.compactions >= 1
    snaps = sorted(
        (name for name in os.listdir(state_dir) if name.endswith(".snap")),
        key=lambda name: int(name.split("-")[1]),
    )
    assert len(snaps) == 2
    for damaged in (None, snaps[-1]):
        if damaged is not None:
            with open(os.path.join(state_dir, damaged), "wb") as handle:
                handle.write(b"bit rot")
        stack = cli_stack(
            "live", "--state-dir", state_dir, "--profile", "clean", "--seed", 7,
            "--retention", 1, *RUN,
        )
        report = recover_runtime(stack)
        assert report.ok, report.render()
        assert report.corrupt_skipped == (0 if damaged is None else 1)
        # Nothing past retention came back, and nothing live went missing:
        # the recovered store is the log under the recovered clock's cutoff.
        cutoff = stack.now_ns - 1 * NS_PER_S
        logged = sorted(
            ts
            for _, points in stack.wal.replay().batches
            for ts in [p.timestamp_ns for p in points]
            if ts >= cutoff
        )
        assert logged and stack.tsdb.inner.total_points() == len(logged)
        assert _second_replay_applies_nothing(stack)
        stack.wal.close()


class TestLegacyStateDirectory:
    """A state directory another build wrote: its checkpoints are not
    damage to skip past, so recovery stops on them."""

    @staticmethod
    def _as_version_1(path):
        """Re-stamp a checkpoint with the JSON era's envelope version,
        its frame otherwise intact."""
        blob = bytearray(path.read_bytes())
        blob[8] = 1
        path.write_bytes(bytes(blob))

    @staticmethod
    def _snapshots(state_dir):
        return sorted(
            (path for path in state_dir.iterdir() if path.name.endswith(".snap")),
            key=lambda path: int(path.name.split("-")[1]),
        )

    def test_a_foreign_checkpoint_stops_recovery_with_one_line(self, tmp_path, capsys):
        """Skipping it as damage would resume the run from nothing."""
        state_dir = tmp_path / "state"
        _run_to_kill(str(state_dir), "analytics.ingest", hit=5)
        *_, newest = self._snapshots(state_dir)
        self._as_version_1(newest)
        code = main([
            "recover", "--state-dir", str(state_dir), "--profile", "clean", "--seed", "7",
            *map(str, RUN),
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"ruru recover: error: {newest}: snapshot version 1;")

    def test_a_torn_newest_still_falls_back(self, tmp_path):
        """Damage is still skipped: a torn newest file of this version
        recovers from the previous checkpoint."""
        state_dir = tmp_path / "state"
        _run_to_kill(str(state_dir), "analytics.ingest", hit=5)
        older, newest = self._snapshots(state_dir)
        newest.write_bytes(newest.read_bytes()[:100])
        stack = cli_stack("live", "--state-dir", state_dir, "--profile", "clean", "--seed", 7, *RUN)
        report = recover_runtime(stack)
        assert report.ok and report.corrupt_skipped == 1
        assert report.checkpoint.path == str(older)
        stack.wal.close()

    def test_an_old_binary_refuses_a_new_directory(self, tmp_path, monkeypatch):
        """STATE_FORMAT moved so a binary that expects ``tsdb_lines``
        stops at the envelope instead of recovering an empty store."""
        state_dir = str(tmp_path / "state")
        _run_to_kill(state_dir, "analytics.ingest", hit=5)
        stack = cli_stack("live", "--state-dir", state_dir, "--profile", "clean", "--seed", 7, *RUN)
        monkeypatch.setattr(builder, "STATE_FORMAT", 1)
        with pytest.raises(ValueError, match="unsupported state format 3"):
            recover_runtime(stack)


def test_damaged_wal_frame_is_reported_and_costs_one_batch(tmp_path):
    state_dir = tmp_path / "state"
    victim = _run_to_kill(str(state_dir), "analytics.ingest", hit=5)
    log = state_dir / "tsdb.wal"
    data = bytearray(log.read_bytes())
    data[_FRAME.size + 2] ^= 0x10  # inside the first frame's payload
    log.write_bytes(bytes(data))
    stack = cli_stack("live", "--state-dir", state_dir, "--profile", "clean", "--seed", 7, *RUN)
    report = recover_runtime(stack)
    assert report.damaged_frames == 1
    assert "damaged wal frames skipped: 1" in report.render()
    assert stack.tsdb.inner.total_points() < victim.tsdb.inner.total_points()
    assert stack.tsdb.inner.total_points() > 0
    assert "ruru_wal_damaged_frames_total 1" in stack.telemetry.registry.exposition()


# -- a poll is one write request: a kill inside it ---------------------------


@pytest.mark.parametrize("point", ["tsdb.wal.pre", "tsdb.wal.post", "tsdb.applied"])
def test_a_kill_inside_a_polls_write_costs_that_polls_records(tmp_path, point):
    """Checkpoint, then die inside the next poll's one write request:
    ``lost_at_crash`` is exactly that poll's records (none was
    published), the store holds the poll's points iff its frame reached
    the log, and either way it equals an uncrashed twin's at the same
    applied batch."""

    def build(directory, **kwargs):
        return cli_stack(
            "live", "--state-dir", tmp_path / directory, "--profile", "clean", "--seed", 7,
            *RUN, **kwargs,
        )

    # The twin: uncrashed, and the map of which feed batch writes what.
    twin = build("twin")
    batches = list(feed.batches(twin.packet_stream(), twin.pipeline.feed_batch))
    stores, appends = [], []
    for batch in batches:
        twin.process_batch(batch)
        stores.append(sorted(twin.tsdb.inner.dump_lines()))
        appends.append(twin.wal.appends)
    twin.wal.close()
    # A mid-run batch whose records all fit its first poll: one request.
    k = next(
        i for i in range(len(batches) // 2, len(batches))
        if appends[i] == appends[i - 1] + 1
    )

    observed = {"count": 0}

    def observe():
        observed["count"] += 1

    schedule = CrashSchedule()
    victim = build("state", crash_schedule=schedule)
    victim.service.ingest_observer = observe
    for batch in batches[:k]:
        victim.process_batch(batch)
    victim.checkpointer.checkpoint(victim.now_ns)
    checkpointed = observed["count"]
    schedule.arm(point, hit=schedule.passes.get(point, 0) + 1)
    with pytest.raises(SimulatedCrash):
        victim.process_batch(batches[k])
    victim.wal.close()
    in_the_poll = observed["count"] - checkpointed
    assert in_the_poll > 0

    survivor = build("state")
    survivor.service.ingest_observer = observe
    report = recover_runtime(survivor, observed_ingested=observed["count"])
    assert report.ok, report.render()
    assert report.lost_at_crash == in_the_poll
    logged = point != "tsdb.wal.pre"
    assert report.replayed_batches == (1 if logged else 0)
    assert sorted(survivor.tsdb.inner.dump_lines()) == stores[k if logged else k - 1]
    assert _second_replay_applies_nothing(survivor)

    for batch in batches[k + 1:]:
        survivor.process_batch(batch)
    drain = survivor.drain()
    survivor.wal.close()
    assert drain.ok, drain.render()
    whole_trial = Ledger(
        ingested=observed["count"],
        processed=drain.ledger.processed,
        dropped=drain.ledger.dropped,
        deadlettered=drain.ledger.deadlettered,
        lost_at_crash=report.lost_at_crash,
        scope="durability",
    )
    assert whole_trial.ok, str(whole_trial)
