"""Shard supervision: spawn, crash containment, restart, drain.

These tests fork real processes through :class:`ShardedRuntime`, the one
shard parent, with its child body swapped for a tiny state machine
(``_shard_entry``) so each property — heartbeats, restore delivery,
crashes — can be exercised in isolation.
"""

import os
import signal
import time

import pytest

from repro.mq.frames import Message
from repro.shard import heartbeat, protocol
from repro.shard.heartbeat import encode_heartbeat
from repro.shard.runtime import (
    SHARD_DOWN,
    SHARD_DRAINED,
    SHARD_FAILED,
    SHARD_UP,
    ShardedRuntime,
)
from repro.shard.transport import TransportClosed
from tests.shard.conftest import stop_process


def _obedient_entry(shard_id, transport):
    """Replies to drain; echoes a heartbeat or its restore on request."""
    restored = None
    while True:
        try:
            message = transport.recv(timeout=10.0)
        except TransportClosed:
            return 0
        if message is None:
            return 1  # silence from the parent is a test bug
        topic = message.topic
        if topic == protocol.RESTORE_TOPIC:
            restored = protocol.decode_state(message)
        elif topic == b"hb-now":
            transport.send(encode_heartbeat(shard_id, 1))
        elif topic == protocol.DRAIN_TOPIC:
            transport.send(
                protocol.encode_json(
                    protocol.DRAINED_TOPIC,
                    {"shard_id": shard_id, "restored": restored},
                )
            )
            return 0


class ObedientRuntime(ShardedRuntime):
    def _shard_entry(self, shard_id, transport):
        return _obedient_entry(shard_id, transport)


def _make_supervisor(num_shards=2, **kwargs):
    return ObedientRuntime(num_shards, **kwargs)


def _states(supervisor):
    return {h.name: h.state for h in supervisor.handles.values()}


def _kill(supervisor, shard_id):
    """Chaos from outside: SIGKILL the shard process directly."""
    os.kill(supervisor.handles[shard_id].pid, signal.SIGKILL)


def _declare(supervisor, shard_id, cause):
    return supervisor._declare(supervisor.handles[shard_id], cause)


def _drain_all(supervisor):
    for handle in supervisor.handles.values():
        supervisor._drain_shard(handle)


class TestSpawnAndDrain:
    def test_start_spawns_one_live_process_per_spec(self):
        supervisor = _make_supervisor(3)
        try:
            supervisor.start()
            assert _states(supervisor) == {
                "shard-0": SHARD_UP,
                "shard-1": SHARD_UP,
                "shard-2": SHARD_UP,
            }
            pids = {h.pid for h in supervisor.handles.values()}
            assert len(pids) == 3 and None not in pids
            assert os.getpid() not in pids
        finally:
            _drain_all(supervisor)
            supervisor.close()

    def test_drain_handshake_returns_the_child_payload(self):
        supervisor = _make_supervisor(2)
        supervisor.start()
        try:
            handle = supervisor.handles[1]
            payload = supervisor._drain_shard(handle)
            assert payload is not None and payload["shard_id"] == 1
            assert handle.state == SHARD_DRAINED
            assert handle.transport is None and handle.pid is None
        finally:
            _drain_all(supervisor)
            supervisor.close()

    def test_heartbeats_feed_the_detector(self):
        supervisor = _make_supervisor(1)
        supervisor.start()
        try:
            handle = supervisor.handles[0]
            handle.transport.send(Message([b"hb-now"]))
            message = handle.transport.recv(timeout=10.0)
            supervisor._handle_message(handle, message)
            assert supervisor.detector.heartbeats_observed == 1
            assert supervisor.detector.last_latency_ns(0) is not None
        finally:
            _drain_all(supervisor)
            supervisor.close()


class TestCrashContainment:
    def test_sigkill_is_contained_and_charged_to_the_crash(self):
        """A SIGKILLed shard never takes the parent down: the death is
        observed as EOF, declared, and its inflight charged as lost."""
        supervisor = _make_supervisor(2)
        supervisor.start()
        try:
            victim = supervisor.handles[0]
            victim.inflight = {7: 42}  # pretend a batch was in flight
            _kill(supervisor, 0)
            lost = _declare(supervisor, 0, cause="chaos")
            assert lost == 42
            assert victim.lost_at_crash == 42
            assert victim.inflight == {}
            assert victim.state == SHARD_DOWN
            assert victim.causes == ["chaos"]
            # The sibling is untouched.
            assert supervisor.handles[1].state == SHARD_UP
        finally:
            _drain_all(supervisor)
            supervisor.close()

    def test_declare_down_drains_predeath_control_messages(self):
        """A heartbeat already in the pipe when the shard dies still
        counts — work that escaped the crash is not lost."""
        supervisor = _make_supervisor(1)
        supervisor.start()
        try:
            handle = supervisor.handles[0]
            handle.transport.send(Message([b"hb-now"]))
            # Give the child time to reply, then kill it.
            deadline = time.monotonic() + 5.0
            while not handle.transport.pump():
                if time.monotonic() > deadline:
                    pytest.fail("child never replied")
                time.sleep(0.01)
            _kill(supervisor, 0)
            _declare(supervisor, 0, cause="chaos")
            assert supervisor.detector.heartbeats_observed == 1
        finally:
            supervisor.close()

    def test_declare_down_is_idempotent(self):
        supervisor = _make_supervisor(1)
        supervisor.start()
        try:
            _kill(supervisor, 0)
            _declare(supervisor, 0, cause="first")
            assert _declare(supervisor, 0, cause="second") == 0
            assert supervisor.handles[0].causes == ["first"]
        finally:
            supervisor.close()


class TestStalledProcess:
    """A stopped process never exits on its own: whoever waits for it
    without killing it first waits forever."""

    def test_declare_down_kills_before_it_reaps(self):
        supervisor = _make_supervisor(2)
        supervisor.start()
        try:
            stop_process(supervisor.handles[0].pid)
            supervisor.handles[0].inflight = {3: 17}
            assert _declare(supervisor, 0, cause="heartbeat-deadline") == 17
            assert supervisor.handles[0].state == SHARD_DOWN
            assert supervisor.handles[0].pid is None
            assert supervisor.handles[1].state == SHARD_UP
        finally:
            _drain_all(supervisor)
            supervisor.close()

    def test_drain_of_a_silent_shard_ends_at_its_lease(self, monkeypatch):
        monkeypatch.setattr(heartbeat, "LEASE_HEARTBEATS", 8)  # 0.2 s
        supervisor = _make_supervisor(1)
        supervisor.start()
        try:
            stop_process(supervisor.handles[0].pid)
            started = time.monotonic()
            assert supervisor._drain_shard(supervisor.handles[0]) is None
            assert 0.15 < time.monotonic() - started < 2.0
            handle = supervisor.handles[0]
            assert handle.state == SHARD_DOWN
            assert handle.causes == ["heartbeat-deadline"]
            assert handle.pid is None and handle.transport is None
        finally:
            supervisor.close()

    def test_shutdown_collects_a_stopped_process(self):
        supervisor = _make_supervisor(1)
        supervisor.start()
        stop_process(supervisor.handles[0].pid)
        supervisor.close()
        assert supervisor.handles[0].pid is None


class TestRestart:
    def test_restart_respawns_and_delivers_the_restore_payload(self):
        supervisor = _make_supervisor(1)
        supervisor.start()
        try:
            old_pid = supervisor.handles[0].pid
            _kill(supervisor, 0)
            _declare(supervisor, 0, cause="chaos")
            handle = supervisor.handles[0]
            handle.checkpoint = {"last_seq": 9}
            assert supervisor._restart(handle)
            assert handle.state == SHARD_UP
            assert handle.pid != old_pid
            assert handle.restarts == 1
            assert sum(h.restarts for h in supervisor.handles.values()) == 1
            payload = supervisor._drain_shard(handle)
            assert payload["restored"] == {
                "state": {"last_seq": 9},
                "delta": {"processed": 0, "parse_errors": 0, "records": 0},
            }
        finally:
            _drain_all(supervisor)
            supervisor.close()

    def test_restart_in_wrong_state_raises(self):
        supervisor = _make_supervisor(1)
        supervisor.start()
        try:
            with pytest.raises(RuntimeError):
                supervisor._restart(supervisor.handles[0])
        finally:
            _drain_all(supervisor)
            supervisor.close()

    def test_budget_exhaustion_marks_the_shard_failed_forever(self):
        supervisor = _make_supervisor(1, max_restarts_per_shard=1)
        supervisor.start()
        handle = supervisor.handles[0]
        try:
            _kill(supervisor, 0)
            _declare(supervisor, 0, cause="chaos-1")
            assert supervisor._restart(handle) is True
            _kill(supervisor, 0)
            _declare(supervisor, 0, cause="chaos-2")
            assert supervisor._restart(handle) is False
            assert handle.state == SHARD_FAILED
            assert supervisor.budget.exhausted("shard-0")
        finally:
            supervisor.close()


class TestObservability:
    def test_bind_registry_exports_liveness_and_crash_counters(self):
        from repro.obs.registry import MetricsRegistry

        supervisor = _make_supervisor(2)
        supervisor.start()
        try:
            registry = MetricsRegistry()
            supervisor.bind_registry(registry)
            _kill(supervisor, 0)
            _declare(supervisor, 0, cause="chaos")
            snap = registry.snapshot()
            up = {
                s["labels"]["shard"]: s["value"]
                for s in snap["ruru_shard_up"]["samples"]
            }
            assert up == {"shard-0": 0, "shard-1": 1}
            lost = {
                s["labels"]["shard"]: s["value"]
                for s in snap["ruru_shard_lost_at_crash_total"]["samples"]
            }
            assert lost["shard-0"] == 0  # nothing was in flight
        finally:
            _drain_all(supervisor)
            supervisor.close()
