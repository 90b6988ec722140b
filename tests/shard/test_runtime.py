"""End-to-end sharded runs: conservation, equivalence, chaos, recovery.

Every test here forks real worker processes and ends by checking the
global ledger ``ingested == processed + dropped + deadlettered + shed
+ lost_at_crash`` — the invariant a crash may bend the *terms* of but
never the *sum*.
"""

import os
import random
import signal
import threading
import time

import pytest

from repro.core.config import PipelineConfig
from repro.core.feed import drive
from repro.core.pipeline import RuruPipeline
from repro.dpdk.nic import NicPort
from repro.mq.codec import decode_latency_record, encode_latency_record
from repro.net.packet import build_tcp_packet
from repro.net.tcp import TCP_FLAG_ACK, TCP_FLAG_SYN
from repro.mq.frames import Message
from repro.shard import heartbeat, protocol
from repro.shard.runtime import ShardedRuntime
from repro.traffic.generator import GeneratorConfig, TrafficGenerator
from tests.shard.conftest import stop_process

NS_PER_S = 1_000_000_000


@pytest.fixture(scope="module")
def packets():
    config = GeneratorConfig(
        duration_ns=3 * NS_PER_S, mean_flows_per_s=40, seed=11
    )
    return TrafficGenerator(config=config).packet_list()


def run_to_drain(runtime, packets, batch_size=64):
    """One episode the way every caller runs one: the driver, then drain."""
    drive(runtime.offer, packets, size=batch_size)
    return runtime.drain()


def run_sharded(packets, num_shards=2, batch_size=64, **kwargs):
    runtime = ShardedRuntime(num_shards, PipelineConfig(), **kwargs)
    try:
        return run_to_drain(runtime, packets, batch_size)
    finally:
        runtime.close()


def rounds_of(packets, batch_size=64):
    return [
        packets[start : start + batch_size]
        for start in range(0, len(packets), batch_size)
    ]


@pytest.fixture
def lease_s(monkeypatch):
    """The shipped lease is 2 s; 0.4 s keeps tier-1 fast and is still
    sixteen heartbeats a loaded host would have to swallow."""
    monkeypatch.setattr(heartbeat, "LEASE_HEARTBEATS", 16)
    return 16 * heartbeat.HEARTBEAT_INTERVAL_NS / 1e9


class TestCleanRun:
    def test_clean_run_conserves_and_reconciles(self, packets):
        records = []
        report = run_sharded(packets, record_sink=records.append)
        assert report.ok, report.failed_checks()
        ledger = report.ledger
        assert ledger.ingested == len(packets)
        assert ledger.processed == len(packets)
        assert (
            ledger.dropped
            == ledger.deadlettered
            == ledger.shed
            == ledger.lost_at_crash
            == 0
        )
        assert report.counts["shard.restarts"] == 0
        assert set(report.states.values()) == {"drained"}
        assert report.records["emitted"] == len(records) > 0
        assert report.records["delivered"] == report.records["emitted"]

    def test_rss_spreads_work_across_shards(self, packets):
        report = run_sharded(packets, num_shards=2)
        dispatched = [
            report.shards[name]["dispatched"]
            for name in ("shard-0", "shard-1")
        ]
        assert all(d > 0 for d in dispatched)

    def test_record_multiset_matches_single_process_pipeline(self, packets):
        """The tentpole equivalence: sharding across OS processes is
        pure mechanism — it must not change a single measurement."""
        sharded = []
        report = run_sharded(
            packets, num_shards=2, record_sink=sharded.append
        )
        assert report.ok

        pipeline = RuruPipeline(PipelineConfig(num_queues=2))
        pipeline.run_packets(packets)
        single = [
            encode_latency_record(r) for r in pipeline.measurements
        ]
        assert len(sharded) == len(single) > 0
        assert sorted(sharded) == sorted(single)

    def test_records_carry_their_shard_queue_id(self, packets):
        records = []
        report = run_sharded(
            packets, num_shards=2, record_sink=records.append
        )
        assert report.ok
        queues = {decode_latency_record(r).queue_id for r in records}
        assert queues == {0, 1}


def killed_run(packets, at_seq, runtime_class=ShardedRuntime):
    """Shard 1 SIGKILLed on its batch *at_seq*, with a checkpoint every
    4 rounds; returns the report and every restore payload sent."""
    runtime = runtime_class(2, PipelineConfig(), checkpoint_every_batches=4)
    runtime.schedule_kill(1, at_seq=at_seq)
    restores = []
    send = runtime._send

    def record(handle, message):
        sent = send(handle, message)
        if sent and isinstance(message, Message) and message.topic == protocol.RESTORE_TOPIC:
            restores.append(protocol.decode_state(message))
        return sent

    runtime._send = record
    try:
        return run_to_drain(runtime, packets), restores
    finally:
        runtime.close()


def without_wall_clock(report):
    """Everything a report holds but its wall-clock heartbeat count."""
    return (
        report.counts, report.shards, report.reconciliation,
        report.records, report.states, report.rounds,
    )


class TestChaos:
    def test_scheduled_kill_recovers_with_exact_books(self, packets):
        """SIGKILL one shard mid-run: the shard restarts from its last
        checkpoint plus the acked counts since, rejoins, and every
        ledger — global, parent per-shard, and the child's own —
        balances."""
        report, _ = killed_run(packets, at_seq=6)
        assert report.ok, report.failed_checks()
        victim = report.shards["shard-1"]
        assert victim["restarts"] == 1
        assert victim["lost_at_crash"] > 0
        assert "scheduled-kill" in victim["causes"]
        assert report.ledger.lost_at_crash == victim["lost_at_crash"]
        # The restore made reconciliation exact despite the crash: the
        # restarted child's drained ledger is the parent's books.
        assert [
            detail for name, ok, detail in report.reconciliation
            if name.startswith("shard-1.")
        ] == [
            f"child={victim['acked']} parent={victim['acked']}",
            f"child={victim['parse_errors']} parent={victim['parse_errors']}",
            f"child={victim['records']} parent={victim['records']}",
        ]

    @pytest.mark.parametrize(
        "at_seq, checkpointed",
        [(3, False), (6, True)],
        ids=["before-the-first-checkpoint", "after-a-checkpoint"],
    )
    def test_a_kill_either_side_of_a_checkpoint_reconciles(
        self, packets, at_seq, checkpointed
    ):
        """Rounds 1-3 precede the first checkpoint (round 4): a death
        there restarts from no state and one delta of every acked
        count; a death after it loads the state and adds the rest."""
        report, restores = killed_run(packets, at_seq=at_seq)
        assert report.ok, report.failed_checks()
        (restore,) = restores
        assert (restore["state"] is not None) == checkpointed
        delta = restore["delta"]
        assert delta["processed"] > 0
        if checkpointed:
            # The delta is only what was acked after the cut.
            assert delta["processed"] < report.shards["shard-1"]["acked"]

    def test_the_same_kill_twice_gives_the_same_books(self, packets):
        """Nothing outlives a run: a second identical run in the same
        process ends with the first one's counts."""
        first = without_wall_clock(killed_run(packets, at_seq=6)[0])
        second = without_wall_clock(killed_run(packets, at_seq=6)[0])
        assert first == second

    def test_protect_handshakes_sheds_payload_with_attribution(
        self, packets
    ):
        runtime = ShardedRuntime(2, PipelineConfig(), restart_delay_batches=3)
        runtime.schedule_kill(0, at_seq=3)
        try:
            report = run_to_drain(runtime, packets)
        finally:
            runtime.close()
        assert report.ok, report.failed_checks()
        assert report.counts["shard.rerouted"] > 0  # handshakes kept alive
        shed = {
            name: count for name, count in report.counts.items()
            if name.startswith("shard.shed.")
        }
        assert sum(shed.values()) == report.ledger.shed
        assert shed["shard.shed.handshake"] == 0

    def test_reroute_all_never_sheds_while_a_shard_lives(self, packets):
        runtime = ShardedRuntime(
            2,
            PipelineConfig(),
            policy="reroute-all",
            restart_delay_batches=3,
        )
        runtime.schedule_kill(0, at_seq=3)
        try:
            report = run_to_drain(runtime, packets)
        finally:
            runtime.close()
        assert report.ok, report.failed_checks()
        assert report.ledger.shed == 0
        assert report.counts["shard.rerouted"] > 0

    def test_budget_exhaustion_degrades_but_still_balances(self, packets):
        """Two kills against a budget of one: the shard is failed
        forever, its traffic reroutes for the rest of the run, and the
        books still close."""
        runtime = ShardedRuntime(
            2,
            PipelineConfig(),
            max_restarts_per_shard=1,
            policy="reroute-all",
        )
        runtime.schedule_kill(1, at_seq=3)
        try:
            runtime.start()
            batch, fed = [], 0
            iterator = iter(packets)
            for packet in iterator:
                batch.append(packet)
                if len(batch) == 64:
                    runtime.offer(batch)
                    batch, fed = [], fed + 64
                    if runtime.handles[1].restarts == 1:
                        break
            runtime.schedule_kill(1, at_seq=runtime.handles[1].next_seq + 1)
            for packet in iterator:
                batch.append(packet)
                if len(batch) == 64:
                    runtime.offer(batch)
                    batch = []
            if batch:
                runtime.offer(batch)
            report = runtime.drain()
        finally:
            runtime.close()
        assert report.ledger.ok, str(report.ledger)
        assert report.states["shard-1"] == "failed"
        assert report.counts["shard.restarts"] == 1

    def test_a_restart_that_dies_before_its_restore_is_one_more_death(
        self, packets
    ):
        """Every respawn of shard 1 exits before it reads its restore,
        so writing the restore meets EPIPE. That is a declared death —
        charged, restarted within budget, then failed — not the run's
        end."""

        class DiesOnRespawn(ShardedRuntime):
            def _shard_entry(self, shard_id, transport):
                if self.handles[shard_id].causes:
                    return 0
                return super()._shard_entry(shard_id, transport)

            def _spawn(self, handle):
                super()._spawn(handle)
                if handle.causes:  # gone, not yet reaped, before the write
                    os.waitid(os.P_PID, handle.pid, os.WEXITED | os.WNOWAIT)

        report, restores = killed_run(packets, at_seq=4, runtime_class=DiesOnRespawn)
        assert report.ledger.ok, str(report.ledger)
        assert report.ok, report.failed_checks()
        victim = report.shards["shard-1"]
        assert victim["restarts"] >= 2 or victim["state"] == "failed"
        assert victim["causes"][0] == "scheduled-kill"
        assert set(victim["causes"][1:]) == {"transport-eof"}
        assert restores == []  # no restore was ever written whole

    def test_a_later_death_is_not_the_scheduled_kills(self, packets):
        """A fault fires once: the scheduled kill labels the death it
        produced, and a SIGKILL from outside after the rejoin is an
        ordinary EOF."""
        runtime = ShardedRuntime(2, PipelineConfig())
        runtime.schedule_kill(1, at_seq=3)
        victim = runtime.handles[1]
        killed = False
        try:
            for batch in rounds_of(packets):
                if not killed and victim.restarts == 1 and victim.live:
                    os.kill(victim.pid, signal.SIGKILL)
                    killed = True
                runtime.offer(batch)
            report = runtime.drain()
        finally:
            runtime.close()
        assert report.ledger.ok, str(report.ledger)
        assert report.shards["shard-1"]["causes"] == [
            "scheduled-kill",
            "transport-eof",
        ]
        assert report.shards["shard-1"]["restarts"] == 2


class TestStall:
    """A shard that is alive but stuck (SIGSTOP here; a deadlock or a
    swap storm in production) sends no EOF. Every wait on it sits under
    the heartbeat lease, so it costs one lease and whatever was in
    flight — never the run."""

    def _assert_survived(self, report, lost, restarts, state):
        assert report.ok, report.failed_checks()
        victim = report.shards["shard-1"]
        assert victim["causes"] == ["heartbeat-deadline"]
        assert victim["lost_at_crash"] == lost == report.ledger.lost_at_crash
        assert (victim["restarts"], victim["state"]) == (restarts, state)
        # The neighbour's heartbeats sat unread while the parent waited
        # out the victim's lease; it must not be charged for that.
        neighbour = report.shards["shard-0"]
        assert neighbour["causes"] == [] and neighbour["restarts"] == 0
        assert neighbour["state"] == "drained"

    def test_stall_with_a_batch_in_flight(self, packets, lease_s):
        runtime = ShardedRuntime(2, PipelineConfig())
        victim = runtime.handles[1]
        try:
            for number, batch in enumerate(rounds_of(packets)):
                if number != 3:
                    runtime.offer(batch)
                    continue
                stop_process(victim.pid)
                before = victim.dispatched_packets
                started = time.monotonic()
                runtime.offer(batch)
                elapsed = time.monotonic() - started
                stalled_batch = victim.dispatched_packets - before
            report = runtime.drain()
        finally:
            runtime.close()
        assert lease_s * 0.9 < elapsed < lease_s * 3
        assert stalled_batch > 0
        self._assert_survived(report, stalled_batch, 1, "drained")

    def test_stall_with_a_checkpoint_reply_pending(self, packets, lease_s):
        runtime = ShardedRuntime(2, PipelineConfig())
        try:
            for number, batch in enumerate(rounds_of(packets)):
                runtime.offer(batch)
                if number == 3:
                    stop_process(runtime.handles[1].pid)
                    started = time.monotonic()
                    assert runtime.checkpoint_all() == 1  # shard 0's only
                    elapsed = time.monotonic() - started
            report = runtime.drain()
        finally:
            runtime.close()
        assert lease_s * 0.9 < elapsed < lease_s * 3
        # Nothing was in flight: the round had settled.
        self._assert_survived(report, 0, 1, "drained")

    def test_stall_at_drain(self, packets, lease_s):
        runtime = ShardedRuntime(2, PipelineConfig())
        try:
            for batch in rounds_of(packets):
                runtime.offer(batch)
            stop_process(runtime.handles[1].pid)
            started = time.monotonic()
            report = runtime.drain()
            elapsed = time.monotonic() - started
        finally:
            runtime.close()
        assert lease_s * 0.9 < elapsed < lease_s * 3
        # No round is left to rejoin in: the victim ends the run down,
        # like a shard killed in the final round.
        self._assert_survived(report, 0, 0, "down")
        assert not [
            name for name, _, _ in report.reconciliation if name.startswith("shard-1.")
        ]

    def test_stall_on_a_batch_too_big_for_the_pipe(self, lease_s):
        """A stopped shard reads nothing, so a batch larger than the
        pipe buffer blocks in the *write* — also a wait under the
        lease. It never reached the shard: deadlettered, not lost."""
        rng = random.Random(5)
        big = [
            build_tcp_packet(
                rng.getrandbits(32), 0xC0A80001, rng.randrange(1024, 65536),
                443, TCP_FLAG_ACK, payload=b"x" * 1400, timestamp_ns=i * 1000,
            )
            for i in range(256)
        ]
        runtime = ShardedRuntime(2, PipelineConfig())
        try:
            runtime.start()
            stop_process(runtime.handles[1].pid)
            started = time.monotonic()
            runtime.offer(big)
            elapsed = time.monotonic() - started
            report = runtime.drain()
        finally:
            runtime.close()
        assert lease_s * 0.9 < elapsed < lease_s * 3
        assert report.ledger.ok, str(report.ledger)
        victim = report.shards["shard-1"]
        assert victim["causes"] == ["heartbeat-deadline"]
        assert victim["deadlettered"] > 0 and victim["lost_at_crash"] == 0
        assert report.shards["shard-0"]["causes"] == []

    def test_a_pause_inside_the_lease_changes_nothing(self, packets, lease_s):
        """Determinism, stated as a test: stop and resume shards at
        seeded random rounds, always inside the lease — nobody is
        declared and every count equals an undisturbed run's."""

        undisturbed = without_wall_clock(run_sharded(packets))
        rng = random.Random(19)
        rounds = rounds_of(packets)
        pauses = {
            number: rng.randrange(2)
            for number in rng.sample(range(len(rounds)), 4)
        }
        runtime = ShardedRuntime(2, PipelineConfig())
        try:
            runtime.start()
            for number, batch in enumerate(rounds):
                resume = None
                if number in pauses:
                    pid = runtime.handles[pauses[number]].pid
                    stop_process(pid)
                    resume = threading.Timer(
                        lease_s * rng.uniform(0.1, 0.3),
                        os.kill, (pid, signal.SIGCONT),
                    )
                    resume.start()
                runtime.offer(batch)  # blocks until the shard is resumed
                if resume is not None:
                    resume.join(timeout=5.0)
                    assert not resume.is_alive()
            report = runtime.drain()
        finally:
            runtime.close()
        assert report.counts["shard.restarts"] == 0
        assert without_wall_clock(report) == undisturbed

    def test_a_sleeping_parent_declares_nobody(self, packets, lease_s):
        """Heartbeats that queued while the parent was away are read
        before any lease is judged — even in a round that gives the
        parent no other reason to read them."""
        runtime = ShardedRuntime(2, PipelineConfig())
        try:
            rounds = rounds_of(packets)
            runtime.offer(rounds[0])
            time.sleep(lease_s * 1.5)
            runtime.offer([])
            for batch in rounds[1:]:
                runtime.offer(batch)
            report = runtime.drain()
        finally:
            runtime.close()
        assert report.ok, report.failed_checks()
        assert report.counts["shard.restarts"] == 0
        assert all(ledger["causes"] == [] for ledger in report.shards.values())

    def test_stalling_after_every_rejoin_exhausts_the_budget(
        self, packets, lease_s
    ):
        runtime = ShardedRuntime(
            2,
            PipelineConfig(),
            max_restarts_per_shard=1,
            policy="reroute-all",
        )
        victim = runtime.handles[1]
        stopped = set()
        try:
            runtime.start()
            for batch in rounds_of(packets):
                if victim.live and victim.pid not in stopped:
                    stopped.add(victim.pid)
                    stop_process(victim.pid)
                runtime.offer(batch)
            report = runtime.drain()
        finally:
            runtime.close()
        assert report.ledger.ok, str(report.ledger)
        assert report.states == {"shard-0": "drained", "shard-1": "failed"}
        assert report.counts["shard.restarts"] == 1
        assert report.shards["shard-1"]["causes"] == ["heartbeat-deadline"] * 2
        assert report.shards["shard-0"]["causes"] == []
        assert report.counts["shard.rerouted"] > 0


class TestRouteMap:
    """The parent's route map holds rerouted flows only: a memo of home
    routes grows by one entry per spoofed SYN for the parent's life."""

    def test_distinct_tuples_leave_no_entry_while_every_shard_is_live(self):
        flood = [
            build_tcp_packet(
                0x0A000000 + i, 0xC0A80001, 1024 + i, 443, TCP_FLAG_SYN,
                timestamp_ns=i * 1000,
            )
            for i in range(500)
        ]
        runtime = ShardedRuntime(2, PipelineConfig())
        try:
            for start in range(0, len(flood), 64):
                runtime.offer(flood[start : start + 64])
            assert runtime._flow_route == {}
            report = runtime.drain()
        finally:
            runtime.close()
        assert report.ok, report.failed_checks()
        assert report.ledger.processed == len(flood)

    def test_rerouted_flow_stays_pinned_after_its_home_restarts(self, packets):
        runtime = ShardedRuntime(
            2, PipelineConfig(), policy="reroute-all", restart_delay_batches=3
        )
        runtime.schedule_kill(0, at_seq=3)
        handles = runtime.handles
        try:
            for start in range(0, len(packets), 64):
                runtime.offer(packets[start : start + 64])
            assert handles[0].restarts == 1 and handles[0].live
            routes = dict(runtime._flow_route)
            tuples = {NicPort._extract_tuple(p.data) for p in packets}
            assert 0 < len(routes) < len(tuples)
            hasher = runtime.hasher
            for key, target in routes.items():
                assert hasher.queue_for_hash(hasher.hash_tuple(*key)) == 0
                assert target == 1
            # Home is live again, yet one more packet of a rerouted flow
            # still goes to its fallback.
            pinned = next(
                p for p in packets if NicPort._extract_tuple(p.data) in routes
            )
            before = handles[0].dispatched_packets, handles[1].dispatched_packets
            runtime.offer([pinned])
            after = handles[0].dispatched_packets, handles[1].dispatched_packets
            assert after == (before[0], before[1] + 1)
            assert runtime._flow_route == routes
            report = runtime.drain()
        finally:
            runtime.close()
        assert report.ledger.ok, str(report.ledger)


class TestGuards:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ShardedRuntime(2, policy="coin-flip")

    def test_double_drain_rejected(self, packets):
        runtime = ShardedRuntime(1, PipelineConfig())
        try:
            run_to_drain(runtime, packets[:64])
            with pytest.raises(RuntimeError):
                runtime.drain()
        finally:
            runtime.close()
