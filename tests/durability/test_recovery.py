"""Kill-anywhere acceptance: every crash point, two profiles.

Each trial kills the durable runtime at one registered stage boundary,
recovers a fresh stack from the same state directory, resumes the
workload, and must end with (a) the reconciled ledger balanced with a
non-negative ``lost_at_crash``, (b) an idempotent WAL (a second replay
applies zero batches — the no-double-write proof), and (c) a clean
final checkpoint. Same triple → identical counts.
"""

import pytest

from repro.durability.harness import RecoveryHarness, run_recovery_trial
from repro.durability.recovery import recover_runtime
from repro.faults.crashpoints import CRASH_POINTS
from repro.stack import build_durable_stack

NS_PER_S = 1_000_000_000

# Small-but-busy: several checkpoints and a few hundred records per
# run, so every crash point lands in interesting state.
RUN = dict(duration_s=6.0, rate=30.0, queues=2)

PROFILES = ("clean", "lossy-mq")


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("point", sorted(CRASH_POINTS))
def test_kill_anywhere(tmp_path, profile, point):
    harness = RecoveryHarness(str(tmp_path / "state"), profile=profile, seed=7, **RUN)
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
        str(tmp_path / "state"), profile="lossy-mq", seed=11, **RUN
    )
    first = harness.run_trial("analytics.ingest", hit=2)
    second = harness.run_trial("analytics.ingest", hit=2)
    assert first.ok and second.ok
    assert first.counts() == second.counts()


def test_crash_before_any_checkpoint_cold_starts(tmp_path):
    trial = run_recovery_trial(
        str(tmp_path / "state"), "nic.rx", profile="clean", seed=3, hit=1, **RUN
    )
    assert trial.crashed
    assert trial.recovery.cold_start
    assert trial.ok, trial.render()


def test_stale_wal_after_checkpoint_post_crash_dedups(tmp_path):
    """The crash between checkpoint write and WAL truncate: every WAL
    frame is already covered, so replay must skip them all."""
    trial = run_recovery_trial(
        str(tmp_path / "state"), "checkpoint.post", profile="clean", seed=7,
        hit=2, **RUN
    )
    assert trial.crashed
    assert trial.recovery.duplicates_skipped > 0
    assert trial.recovery.replayed_batches == 0
    assert trial.ok, trial.render()


def test_torn_checkpoint_falls_back(tmp_path):
    """checkpoint.mid leaves a torn blob at the final path; recovery
    must skip it and use the previous checkpoint."""
    trial = run_recovery_trial(
        str(tmp_path / "state"), "checkpoint.mid", profile="clean", seed=7,
        hit=2, **RUN
    )
    assert trial.crashed
    assert trial.recovery.corrupt_skipped >= 1
    assert not trial.recovery.cold_start
    assert trial.ok, trial.render()


def test_clean_shutdown_then_recover_is_lossless(tmp_path):
    state_dir = str(tmp_path / "state")
    runtime = build_durable_stack(state_dir, profile="clean", seed=5, **RUN)
    drain = runtime.run()
    assert drain.ok
    processed = drain.ledger.processed
    lines = sorted(runtime.tsdb.inner.dump_lines())

    restarted = build_durable_stack(state_dir, profile="clean", seed=5, **RUN)
    report = recover_runtime(restarted, observed_ingested=drain.ledger.ingested)
    assert report.ok, report.render()
    assert report.clean_shutdown
    assert report.lost_at_crash == 0
    assert report.replayed_batches == 0  # clean drain truncated the WAL
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
        str(tmp_path / "state"), profile="clean", seed=9,
        retention_ns=2 * NS_PER_S, **RUN
    )
    trial = harness.run_trial("tsdb.applied", hit=20)
    if not trial.crashed:
        trial = harness.run_trial("tsdb.applied", hit=1)
    assert trial.ok, trial.render()


def test_unknown_crash_point_rejected(tmp_path):
    harness = RecoveryHarness(str(tmp_path / "state"))
    with pytest.raises(ValueError, match="unknown crash point"):
        harness.run_trial("no.such.point")
