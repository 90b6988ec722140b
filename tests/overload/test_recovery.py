"""Kill -9 during an active overload episode: the episode survives.

The overload controller's whole ledger (level, per-class counters,
shed attribution, the MQ gate's offered count) lives in the checkpoint
stream, so a crash mid-shed recovers with the extended conservation
invariant reconciling exactly — and the restored ladder steps down
only after a genuine fresh calm dwell, not instantly.
"""

from repro.durability.recovery import recover_runtime
from repro.faults.crashpoints import CrashSchedule, SimulatedCrash
from repro.overload.controller import LEVEL_HEADERS_ONLY
from repro.resilience import Ledger
from tests.conftest import cli_stack

RUN = ("--profile", "clean", "--seed", 7, "--duration", 6, "--rate", 30, "--queues", 2)


def test_crash_during_active_overload_recovers(tmp_path):
    state_dir = str(tmp_path / "state")
    observed = {"count": 0}

    def observe() -> None:
        observed["count"] += 1

    # Arm a kill after the third checkpoint: by then the ladder —
    # wedged at the top by a synthetic always-full probe — has been
    # persisted several times.
    schedule = CrashSchedule().arm("checkpoint.post", hit=3)
    victim = cli_stack(
        "live", "--state-dir", state_dir, "--overload", *RUN, crash_schedule=schedule
    )
    victim.service.ingest_observer = observe
    victim.overload.watch_stage("synthetic", [lambda: (1, 1)])

    packets = list(victim.packet_stream())
    feed_batch = victim.pipeline.feed_batch
    batches = [
        packets[i : i + feed_batch]
        for i in range(0, len(packets), feed_batch)
    ]

    crashed = False
    fed = 0
    try:
        for batch in batches:
            fed += 1
            victim.process_batch(batch)
        victim.drain()
    except SimulatedCrash:
        crashed = True
    assert crashed, "checkpoint.post never fired"
    # The episode was genuinely active when the process died.
    assert victim.overload.level == LEVEL_HEADERS_ONLY
    assert victim.overload.shed_total() > 0
    observed_at_crash = observed["count"]
    del victim  # dead memory

    survivor = cli_stack("live", "--state-dir", state_dir, "--overload", *RUN)
    survivor.service.ingest_observer = observe
    recovery = recover_runtime(survivor, observed_ingested=observed_at_crash)
    assert recovery.ok, recovery.render()
    assert not recovery.cold_start
    # The ladder resumes where the crash left it; sensor hysteresis is
    # deliberately fresh, so it holds until a real calm dwell passes.
    assert survivor.overload.level == LEVEL_HEADERS_ONLY
    assert survivor.overload.shed_total() > 0
    assert survivor.overload.mq_offered > 0

    # Resume the packets the dead process never saw, then drain. No
    # synthetic probe this time: pressure is real (low), so the ladder
    # walks back down over the remaining virtual time.
    for batch in batches[fed:]:
        survivor.process_batch(batch)
    final_drain = survivor.drain()
    assert final_drain.ok, final_drain.render()
    # Each rung needs its own full calm dwell, so how far down the
    # ladder walks depends on the remaining virtual time — what must
    # hold is that it *descended* once pressure was genuinely gone.
    assert survivor.overload.level < LEVEL_HEADERS_ONLY
    assert any(
        t.direction == "step-down" for t in survivor.overload.transitions
    )

    # Whole-trial durability equation, with the crash loss explicit.
    final_ledger = Ledger(
        ingested=observed["count"],
        processed=final_drain.ledger.processed,
        dropped=final_drain.ledger.dropped,
        deadlettered=final_drain.ledger.deadlettered,
        lost_at_crash=recovery.lost_at_crash,
        scope="durability",
    )
    assert final_ledger.ok, str(final_ledger)

    # And the extended invariant: the gate's offered count and the
    # analytics ledger were restored from the same checkpoint cut, so
    # ingested == processed + dropped + deadlettered + shed(mq) exactly.
    combined = Ledger.from_parts(
        survivor.overload.mq_offered,
        final_drain.ledger,
        survivor.overload.shed_total(stage="mq"),
    )
    assert combined.ok, str(combined)
