"""The shard control plane: spawn, watch, kill, declare, restart.

The parent process owns every shard's lifecycle. Each shard is a
``fork``\\ ed child running an entry closure (built by the runtime —
the composition root decides what a shard *is*; this module only
decides whether it is *alive*). Children always leave via
``os._exit`` so a forked Python interpreter never falls back into
pytest or the CLI's stack.

Failure handling is two-phase, mirroring real cluster managers:

* **suspicion** — an EOF or EPIPE on a shard's transport proves the
  process is gone, so dispatch to it stops immediately; but in
  wall-clock mode the *declaration* waits for the heartbeat deadline
  (:class:`~repro.shard.heartbeat.FailureDetector`), because the
  deadline is the detector the design names and a stalled-but-alive
  process produces no EOF at all.
* **declaration** — the shard's in-flight batches are charged to
  ``lost_at_crash``, its transport is closed, the corpse is reaped,
  and a restart is attempted against the per-shard
  :class:`~repro.resilience.RestartBudget`. Within budget the shard
  is respawned and sent a ``restore`` message built from its
  :class:`~repro.durability.shardstate.ShardStateStore` (newest
  checkpoint + WAL'd ack deltas); an exhausted budget marks the shard
  ``failed`` permanently — traffic routes around it forever.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.resilience.supervisor import RestartBudget
from repro.shard.heartbeat import FailureDetector
from repro.shard.placement import ProcessSpec
from repro.shard import protocol
from repro.shard.transport import Transport, make_fd_pair

#: Shard lifecycle states.
SHARD_UP = "up"
SHARD_SUSPECT = "suspect"
SHARD_DOWN = "down"
SHARD_FAILED = "failed"
SHARD_DRAINED = "drained"

#: Child entry: (shard_id, transport) -> exit code. Runs post-fork.
ShardEntry = Callable[[int, Transport], int]


class ShardHandle:
    """Parent-side bookkeeping for one shard process."""

    def __init__(self, spec: ProcessSpec):
        self.spec = spec
        self.shard_id = spec.shard_id
        self.name = spec.name
        self.pid: Optional[int] = None
        self.transport: Optional[Transport] = None
        self.state = SHARD_DOWN  # until first spawn
        self.restarts = 0
        self.detected_cause: Optional[str] = None
        self.causes: List[str] = []
        self.exit_status: Optional[int] = None
        # seq -> packet count for every dispatched-but-unacked batch.
        self.inflight: Dict[int, int] = {}
        self.next_seq = 1
        self.last_acked_seq = 0
        # Cumulative parent-side accounting (survives restarts).
        self.dispatched_packets = 0
        self.acked_packets = 0
        self.acked_parse_errors = 0
        self.records_received = 0
        self.lost_at_crash = 0
        self.deadlettered = 0
        self.rejoin_at_round: Optional[int] = None
        self.drained_payload: Optional[dict] = None
        self.pending_ckpt: Optional[dict] = None

    @property
    def live(self) -> bool:
        """Dispatchable right now."""
        return self.state == SHARD_UP

    @property
    def gone(self) -> bool:
        """Permanently out of the run."""
        return self.state in (SHARD_FAILED, SHARD_DRAINED)

    def inflight_packets(self) -> int:
        return sum(self.inflight.values())

    def ledger(self) -> dict:
        return {
            "dispatched": self.dispatched_packets,
            "acked": self.acked_packets,
            "parse_errors": self.acked_parse_errors,
            "records": self.records_received,
            "lost_at_crash": self.lost_at_crash,
            "deadlettered": self.deadlettered,
            "restarts": self.restarts,
            "state": self.state,
            "causes": list(self.causes),
        }


class ShardSupervisor:
    """Spawns shard processes and keeps them (or their books) alive."""

    def __init__(
        self,
        specs: List[ProcessSpec],
        entry: ShardEntry,
        transport_kind: str = "pipe",
        detector: Optional[FailureDetector] = None,
        restart_budget: Optional[RestartBudget] = None,
    ):
        self.handles: Dict[int, ShardHandle] = {}
        for spec in specs:
            if spec.shard_id is None:
                raise ValueError(f"process {spec.name!r} has no shard id")
            self.handles[spec.shard_id] = ShardHandle(spec)
        self._entry = entry
        self._transport_kind = transport_kind
        self.detector = detector or FailureDetector(deadline_ns=None)
        self.budget = restart_budget or RestartBudget(max_restarts=3)
        self.total_restarts = 0
        self.heartbeats_seen = 0
        self._registry = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        for handle in self.handles.values():
            self._spawn(handle)

    def _spawn(self, handle: ShardHandle) -> None:
        """Fork one shard child; the parent adopts its transport side."""
        pair = make_fd_pair(self._transport_kind)
        pid = os.fork()
        if pid == 0:
            # -- child ------------------------------------------------------
            code = 1
            try:
                # Drop inherited copies of every *other* shard's parent-side
                # fds: a sibling holding them would mask that sibling's EOF
                # and leak fds across restarts.
                for other in self.handles.values():
                    if other.transport is not None:
                        other.transport.close()
                # The parent owns orderly shutdown; a terminal ^C must not
                # kill shards before the parent drains them.
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                transport = pair.adopt_child(label=f"{handle.name}-child")
                code = self._entry(handle.shard_id, transport)
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        # -- parent ---------------------------------------------------------
        handle.pid = pid
        handle.transport = pair.adopt_parent(label=handle.name)
        handle.state = SHARD_UP
        handle.detected_cause = None
        handle.rejoin_at_round = None
        self.detector.watch(handle.shard_id)

    def kill(self, shard_id: int, sig: int = signal.SIGKILL) -> None:
        """Chaos entry point: kill the shard process from outside."""
        handle = self.handles[shard_id]
        if handle.pid is not None:
            try:
                os.kill(handle.pid, sig)
            except ProcessLookupError:
                pass

    def reap(self, handle: ShardHandle, block: bool = False) -> None:
        """Collect the child's exit status (no zombies)."""
        if handle.pid is None:
            return
        flags = 0 if block else os.WNOHANG
        try:
            pid, status = os.waitpid(handle.pid, flags)
        except ChildProcessError:
            handle.pid = None
            return
        if pid == handle.pid:
            handle.exit_status = status
            handle.pid = None

    # -- failure handling ----------------------------------------------------

    def suspect(self, shard_id: int, cause: str) -> None:
        """Stop dispatching; declaration waits for the detector."""
        handle = self.handles[shard_id]
        if handle.state == SHARD_UP:
            handle.state = SHARD_SUSPECT
            handle.detected_cause = cause

    def declare_down(self, shard_id: int, cause: str) -> int:
        """Declare the shard dead; returns packets charged to the crash.

        Drains any acks that made it out before the death first — a
        batch whose ack is already in the pipe was processed, not lost.
        """
        handle = self.handles[shard_id]
        if handle.state in (SHARD_DOWN, SHARD_FAILED, SHARD_DRAINED):
            return 0
        if handle.transport is not None:
            for message in handle.transport.recv_all():
                self.handle_control_message(handle, message)
            handle.transport.close()
            handle.transport = None
        lost = handle.inflight_packets()
        handle.lost_at_crash += lost
        handle.inflight.clear()
        handle.state = SHARD_DOWN
        handle.detected_cause = cause
        handle.causes.append(cause)
        self.detector.forget(shard_id)
        self.reap(handle, block=True)
        return lost

    def restart(
        self,
        shard_id: int,
        restore_payload: Optional[dict] = None,
    ) -> bool:
        """Respawn within budget; False marks the shard failed forever."""
        handle = self.handles[shard_id]
        if handle.state != SHARD_DOWN:
            raise RuntimeError(
                f"cannot restart shard {shard_id} in state {handle.state!r}"
            )
        if not self.budget.consume(handle.name):
            handle.state = SHARD_FAILED
            return False
        self._spawn(handle)
        handle.restarts += 1
        self.total_restarts += 1
        if restore_payload is not None:
            assert handle.transport is not None
            handle.transport.send(
                protocol.encode_json(protocol.RESTORE_TOPIC, restore_payload)
            )
        return True

    def expired_shards(self, now_ns: Optional[int] = None) -> List[int]:
        """Shards whose heartbeat lease has lapsed (wall-clock mode)."""
        expired = self.detector.expired(now_ns)
        return [
            shard_id
            for shard_id in expired
            if self.handles[shard_id].state in (SHARD_UP, SHARD_SUSPECT)
        ]

    # -- message handling ----------------------------------------------------

    def handle_control_message(self, handle: ShardHandle, message) -> bool:
        """Absorb non-ack control traffic; True if the message was taken.

        Acks are left to the runtime (they carry records and feed the
        durability WAL); heartbeats, checkpoint replies and drain
        replies are pure control and land here.
        """
        topic = message.topic
        if topic == protocol.CKPT_TOPIC:
            handle.pending_ckpt = protocol.decode_json(message)
            return True
        if topic == protocol.DRAINED_TOPIC:
            handle.drained_payload = protocol.decode_json(message)
            return True
        from repro.shard.heartbeat import HEARTBEAT_TOPIC, decode_heartbeat

        if topic == HEARTBEAT_TOPIC:
            shard_id, _seq, sent_ns = decode_heartbeat(message)
            self.detector.observe(shard_id, sent_ns)
            self.heartbeats_seen += 1
            return True
        return False

    # -- drain ---------------------------------------------------------------

    def drain_shard(
        self, handle: ShardHandle, timeout_s: float = 30.0
    ) -> Optional[dict]:
        """Graceful-shutdown handshake for one live shard.

        Sends ``drain`` and pumps until the ``drained`` reply arrives
        (acks encountered on the way are NOT consumed here — callers
        must have settled the dataplane first; FIFO ordering guarantees
        no ack can trail the drain reply). Returns the child's ledger
        payload, or None if the shard died instead of draining.
        """
        if handle.transport is None or handle.state not in (
            SHARD_UP,
            SHARD_SUSPECT,
        ):
            return None
        from repro.shard.transport import TransportClosed, TransportError

        try:
            handle.transport.send(
                protocol.encode_json(
                    protocol.DRAIN_TOPIC, {"shard_id": handle.shard_id}
                )
            )
            deadline = time.monotonic() + timeout_s
            while handle.drained_payload is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                message = handle.transport.recv(timeout=min(remaining, 0.05))
                if message is not None:
                    self.handle_control_message(handle, message)
        except (TransportClosed, TransportError):
            return None
        finally:
            if handle.drained_payload is not None:
                handle.state = SHARD_DRAINED
                self.detector.forget(handle.shard_id)
                if handle.transport is not None:
                    handle.transport.close()
                    handle.transport = None
                self.reap(handle, block=True)
        return handle.drained_payload

    def shutdown(self) -> None:
        """Last-resort cleanup: kill and reap anything still running."""
        for handle in self.handles.values():
            if handle.pid is not None:
                try:
                    os.kill(handle.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                self.reap(handle, block=True)
            if handle.transport is not None:
                handle.transport.close()
                handle.transport = None

    # -- observability -------------------------------------------------------

    def bind_registry(self, registry) -> None:
        """Expose shard liveness and crash accounting as metrics."""
        up = registry.gauge(
            "ruru_shard_up",
            help="1 while the shard process is dispatchable, else 0.",
            labels=("shard",),
        )
        restarts = registry.counter(
            "ruru_shard_restarts_total",
            help="Times each shard was respawned after a declared death.",
            labels=("shard",),
        )
        lost = registry.counter(
            "ruru_shard_lost_at_crash_total",
            help="Packets in flight to a shard when it was declared down.",
            labels=("shard",),
        )
        latency = registry.gauge(
            "ruru_shard_heartbeat_latency_ns",
            help="Latest heartbeat one-way latency per shard.",
            labels=("shard",),
        )

        def collect() -> None:
            for handle in self.handles.values():
                up.labels(handle.name).set(1 if handle.live else 0)
                restarts.labels(handle.name).value = handle.restarts
                lost.labels(handle.name).value = handle.lost_at_crash
                seen = self.detector.last_latency_ns(handle.shard_id)
                if seen is not None:
                    latency.labels(handle.name).set(seen)

        registry.register_collector(collect)
        self._registry = registry

    def states(self) -> Dict[str, str]:
        return {h.name: h.state for h in self.handles.values()}


def spawn_summary(handles: Dict[int, ShardHandle]) -> List[Tuple[str, int]]:
    """(name, pid) pairs for logging, in shard-id order."""
    return [
        (handles[shard_id].name, handles[shard_id].pid or -1)
        for shard_id in sorted(handles)
    ]
