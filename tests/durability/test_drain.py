"""Graceful drain tests: stage order, quiesced rejection accounting,
the clean checkpoint, and early shutdown mid-workload."""

from repro.durability.recovery import recover_runtime
from tests.conftest import cli_stack

RUN = ("--duration", 4, "--rate", 30, "--queues", 2)

EXPECTED_STAGES = [
    "quiesce",
    "drain-rings",
    "flush-mq",
    "flush-analytics",
    "flush-frontend",
    "flush-telemetry",
    "sync-wal",
    "clean-checkpoint",
]


def test_drain_runs_stages_in_dependency_order(tmp_path):
    runtime = cli_stack("live", "--state-dir", tmp_path / "s", "--profile", "clean", "--seed", 7, *RUN)
    report = runtime.run()
    assert report.stages == EXPECTED_STAGES
    assert report.ok, report.render()


def test_drain_leaves_clean_checkpoint(tmp_path):
    runtime = cli_stack("live", "--state-dir", tmp_path / "s", "--profile", "clean", "--seed", 7, *RUN)
    report = runtime.run()
    assert report.final_checkpoint is not None
    found = runtime.checkpointer.latest_valid()
    assert found is not None
    assert found[1]["checkpoint"]["clean"] is True


def test_offers_after_quiesce_are_rejected_and_counted(tmp_path):
    runtime = cli_stack("live", "--state-dir", tmp_path / "s", "--profile", "clean", "--seed", 7, *RUN)
    packets = list(runtime.packet_stream())
    runtime.process_batch(packets[:200])
    runtime.pipeline.quiesce()
    for packet in packets[200:220]:
        assert not runtime.pipeline.offer(packet)
    report = runtime.drain()
    assert report.rejected_while_quiesced == 20
    assert report.ok, report.render()


def test_shutdown_flag_stops_feeding_and_drains(tmp_path):
    calls = {"n": 0}

    def stop_after_two():
        calls["n"] += 1
        return calls["n"] >= 2

    runtime = cli_stack("live", "--state-dir", tmp_path / "s", "--profile", "clean", "--seed", 7, *RUN)
    report = runtime.run(shutdown_flag=stop_after_two)
    assert report.ok, report.render()
    # Interrupted early: strictly less traffic than the full scenario.
    full = cli_stack("live", "--state-dir", tmp_path / "full", "--profile", "clean", "--seed", 7, *RUN)
    full_report = full.run()
    assert report.ledger.ingested < full_report.ledger.ingested


def test_interrupted_run_recovers_cleanly(tmp_path):
    state_dir = str(tmp_path / "s")
    runtime = cli_stack("live", "--state-dir", state_dir, "--profile", "clean", "--seed", 7, *RUN)
    report = runtime.run(shutdown_flag=lambda: True)
    assert report.ok

    restarted = cli_stack("live", "--state-dir", state_dir, "--profile", "clean", "--seed", 7, *RUN)
    recovery = recover_runtime(
        restarted, observed_ingested=report.ledger.ingested
    )
    assert recovery.ok, recovery.render()
    assert recovery.clean_shutdown
    assert recovery.lost_at_crash == 0
