"""The store is always ``replay(log)`` — as properties.

Two of them. A flipped payload byte in frame *k* of *n* costs exactly
that batch. And for any interleaving of feeding, rejected writes,
checkpoints, retention ticks, compactions and a kill at any crash
point, what recovery rebuilds from the log is what an uncrashed twin
holds at the same applied batch; replaying a second time applies
nothing; and capture → ``load_state`` → capture is a fixed point, which
matters twice over now that a checkpoint no longer carries the store.
"""

import dataclasses
import functools
import itertools
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability.codec import decode_snapshot, encode_snapshot
from repro.durability.recovery import recover_runtime
from repro.durability.wal import _FRAME, WriteAheadLog
from repro.faults.crashpoints import CRASH_POINTS, CrashSchedule, SimulatedCrash
from repro.faults.profiles import FaultProfile, get_profile
from repro.resilience.invariants import Ledger
from repro.tsdb.point import Point
from tests.conftest import cli_stack

NS_PER_S = 1_000_000_000


# -- one flipped bit costs one batch -----------------------------------------


@st.composite
def damaged_logs(draw):
    sizes = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=8))
    victim = draw(st.integers(min_value=0, max_value=len(sizes) - 1))
    return sizes, victim, draw(st.integers(min_value=0)), draw(
        st.integers(min_value=1, max_value=255)
    )


@given(case=damaged_logs())
@settings(max_examples=150, deadline=None)
def test_a_flipped_payload_byte_costs_exactly_that_batch(case):
    sizes, victim, position, mask = case
    with tempfile.TemporaryDirectory() as scratch:
        wal = WriteAheadLog(f"{scratch}/t.wal")
        frames = []
        for batch_id, size in enumerate(sizes, start=1):
            length = wal.append(
                batch_id,
                [
                    Point("latency", batch_id * 100 + i, {"pair": "NZ-US"}, {"ms": 1.5})
                    for i in range(size)
                ],
            )
            frames.append(length)
        wal.close()
        with open(wal.path, "rb") as handle:
            data = bytearray(handle.read())
        payload_start = sum(frames[:victim]) + _FRAME.size
        payload_len = frames[victim] - _FRAME.size
        data[payload_start + position % payload_len] ^= mask
        with open(wal.path, "wb") as handle:
            handle.write(bytes(data))

        replay = WriteAheadLog(wal.path).replay()
        survivors = [b for b in range(1, len(sizes) + 1) if b != victim + 1]
        if victim == len(sizes) - 1:
            # A damaged *last* frame is indistinguishable from a torn
            # append, and is treated as one.
            assert replay.torn_tail and replay.damaged_frames == 0
        else:
            assert not replay.torn_tail and replay.damaged_frames == 1
        assert [batch_id for batch_id, _ in replay.batches] == survivors
        assert [len(points) for _, points in replay.batches] == [
            sizes[b - 1] for b in survivors
        ]


# -- recovered store == uncrashed twin, for any interleaving -----------------

RUN = ("--seed", 7, "--duration", 4, "--rate", 30, "--queues", 2)
FEED = 48  # frames per offered batch: ~30 batches, so ops interleave finely

#: Writes are rejected (abort record, retry under a later id) for half a
#: virtual second mid-run — by the clock, not by dice, so a twin and a
#: restarted process reject exactly the same batches.
BROWNOUT = FaultProfile(
    name="brownout-only",
    tsdb_brownout_start_ns=int(1.5 * NS_PER_S),
    tsdb_brownout_ns=NS_PER_S // 2,
)


def build(state_dir, profile, *flags, crash_schedule=None):
    """``ruru live``'s stack on *state_dir* under *profile* (a registered
    name, or a FaultProfile derived from ``clean``)."""
    if isinstance(profile, FaultProfile):
        clean = get_profile("clean")
        derived = {
            key: value
            for key, value in dataclasses.asdict(profile).items()
            if key not in ("name", "description") and value != getattr(clean, key)
        }
        overrides = {"faults.overrides": derived}
        profile = "clean"
    else:
        overrides = None
    return cli_stack(
        "live", "--state-dir", state_dir, "--profile", profile, *RUN, *flags,
        crash_schedule=crash_schedule, overrides=overrides,
    )


@functools.lru_cache(maxsize=None)
def batches_for(profile):
    """The network: the same frames for every example of a profile."""
    with tempfile.TemporaryDirectory() as scratch:
        stack = build(scratch, profile)
        packets = list(stack.packet_stream())
        stack.wal.close()
    return [packets[i : i + FEED] for i in range(0, len(packets), FEED)]


@functools.lru_cache(maxsize=None)
def crossings_for(profile):
    """How often an uncrashed run of *profile* passes each crash point
    (ops only add checkpoints, so every count is a floor): the range a
    kill's ordinal is drawn from, whatever a write request now holds."""
    schedule = CrashSchedule()  # unarmed: it only counts passes
    with tempfile.TemporaryDirectory() as scratch:
        stack = build(scratch, profile, crash_schedule=schedule)
        live_out(stack, [], iter(batches_for(profile)))
    return schedule.passes


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("feed"), st.integers(min_value=1, max_value=6)),
        st.just(("checkpoint",)),
        st.just(("retention",)),
        st.just(("compact",)),
    ),
    max_size=14,
)


def perform(stack, op, network):
    """Apply one op. *network* is an iterator over the batches: one it
    has handed over is gone, whether or not the process survives it."""
    if op[0] == "feed":
        for batch in itertools.islice(network, op[1]):
            stack.process_batch(batch)
    elif op[0] == "checkpoint":
        stack.checkpointer.checkpoint(stack.now_ns)
    elif op[0] == "retention":
        stack.tsdb.enforce_retention(stack.now_ns)
    else:
        stack.tsdb.compact(stack.now_ns)


def live_out(stack, ops, network):
    """The ops, then whatever is left of the network, then a drain —
    unless the stack's crash schedule kills it first."""
    try:
        for op in ops:
            perform(stack, op, network)
        for batch in network:
            stack.process_batch(batch)
        stack.drain()
    except SimulatedCrash:
        pass
    stack.wal.close()


class HaltAtBatch:
    """A crash schedule that stops the twin the moment it has *logged*
    batch *batch_id*, before its store answers: 'an uncrashed twin at
    the same logged batch'. Its store plus that one logged write is
    what a store at that batch holds, whether the write would then land
    or be refused — a refused write is aborted and retried under a
    later id, but a crash before the abort reaches the log replays it,
    as the log promises (``DurableTsdb.write_batch``)."""

    def __init__(self, batch_id):
        self.batch_id = batch_id
        self.tsdb = None

    def will_fire(self, point):
        return False

    def reached(self, point):
        if point == "tsdb.wal.post" and self.tsdb.next_batch_id > self.batch_id:
            raise SimulatedCrash(point, 0)


def on_disk(state):
    """*state* as a checkpoint file would hand it back."""
    return decode_snapshot(encode_snapshot(state))


@given(
    ops=OPS,
    point=st.sampled_from(sorted(CRASH_POINTS)),
    hit_share=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    profile=st.sampled_from(["clean", BROWNOUT]),
    retention_s=st.sampled_from([None, 1]),
)
@settings(max_examples=40, deadline=None)
# The kill lands on the log write of a batch the brown-out refuses: the
# frame is logged and never aborted, so recovery applies it, while the
# uncrashed twin's store refuses it and lands the points under a later
# id. Recovery is right; the twin halts on the same *logged* batch.
@example(ops=[], point="tsdb.wal.post", hit_share=0.375, profile=BROWNOUT, retention_s=None)
def test_recovered_store_equals_an_uncrashed_twin(ops, point, hit_share, profile, retention_s):
    batches = batches_for(profile)
    # One past the last crossing is a kill that never comes: a clean shutdown.
    hit = 1 + int(hit_share * (crossings_for(profile)[point] + 1))
    retention = () if retention_s is None else ("--retention", retention_s)

    def run(state_dir, crash_schedule=None):
        return build(state_dir, profile, *retention, crash_schedule=crash_schedule)

    with tempfile.TemporaryDirectory() as state_dir, tempfile.TemporaryDirectory() as twin_dir:
        observed = {"count": 0}

        def observe():
            observed["count"] += 1

        # The victim dies at the armed point's hit-th pass (a schedule
        # that never fires ends in a clean shutdown instead).
        network = iter(batches)
        victim = run(state_dir, crash_schedule=CrashSchedule().arm(point, hit=hit))
        victim.service.ingest_observer = observe
        live_out(victim, ops, network)
        killed_at_ns = victim.now_ns
        observed_at_crash = observed["count"]

        survivor = run(state_dir)
        survivor.service.ingest_observer = observe
        report = recover_runtime(survivor, observed_ingested=observed_at_crash)
        assert report.ok, report.render()
        assert report.lost_at_crash >= 0
        applied = survivor.tsdb.last_applied_batch_id

        # The twin: same ops, no kill, halted at the same logged batch,
        # then holding that batch's logged write.
        halt = HaltAtBatch(applied)
        twin = run(twin_dir, crash_schedule=halt)
        halt.tsdb = twin.tsdb
        if applied:
            live_out(twin, ops, iter(batches))
            twin.tsdb.replay_wal()
            assert twin.tsdb.last_applied_batch_id == applied
        # Retention ticks land at different clocks in the two lives (the
        # recovered one runs at the checkpoint's); one more at the
        # latest clock either has seen makes them comparable.
        for store in (survivor.tsdb.inner, twin.tsdb.inner):
            store.enforce_retention(killed_at_ns)
        recovered_lines = sorted(survivor.tsdb.inner.dump_lines())
        assert recovered_lines == sorted(twin.tsdb.inner.dump_lines())

        # A second replay applies nothing and changes nothing.
        replayed = survivor.tsdb.replayed_batches
        survivor.tsdb.replay_wal(now_ns=survivor.now_ns)
        assert survivor.tsdb.replayed_batches == replayed
        survivor.tsdb.inner.enforce_retention(killed_at_ns)
        assert sorted(survivor.tsdb.inner.dump_lines()) == recovered_lines

        # capture -> load_state -> capture is a fixed point.
        captured = on_disk(survivor.capture_state())
        assert "tsdb_lines" not in captured
        reloaded = run(twin_dir)
        reloaded.load_state(captured)
        assert on_disk(reloaded.capture_state()) == captured
        reloaded.wal.close()

        # ... and the recovered process carries on: the rest of the
        # trace, a graceful drain, the whole-trial ledger balanced.
        for batch in network:
            survivor.process_batch(batch)
        drain = survivor.drain()
        assert drain.ok, drain.render()
        survivor.wal.close()
        whole_trial = Ledger(
            ingested=observed["count"],
            processed=drain.ledger.processed,
            dropped=drain.ledger.dropped,
            deadlettered=drain.ledger.deadlettered,
            lost_at_crash=report.lost_at_crash,
            scope="durability",
        )
        assert whole_trial.ok, str(whole_trial)
