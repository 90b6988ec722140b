"""The shard control plane: spawn, watch, kill, declare, restart.

The parent process owns every shard's lifecycle. Each shard is a
``fork``\\ ed child running an entry closure (built by the runtime —
the composition root decides what a shard *is*; this module only
decides whether it is *alive*). Children always leave via
``os._exit`` so a forked Python interpreter never falls back into
pytest or the CLI's stack.

A shard stops being live in one of two ways, and both end in the same
:meth:`ShardSupervisor.declare_down`:

* **it died** — an EOF or EPIPE on its transport proves the process is
  gone, and it is declared at once;
* **it is stuck** — alive, pipes open, silent: only the heartbeat
  lease (:class:`~repro.shard.heartbeat.FailureDetector`) can tell,
  and a shard silent for one lease is declared ``heartbeat-deadline``.

Declaring SIGKILLs the process *before* reaping it — a stopped process
never exits on its own, and a parent blocked in ``waitpid`` on one is
the hang the process boundary exists to prevent. The shard's in-flight
batch is charged to ``lost_at_crash`` and its transport closed; a
restart is then attempted against the per-shard
:class:`~repro.resilience.RestartBudget`. Within budget the shard is
respawned and sent a ``restore`` message built from its
:class:`~repro.durability.shardstate.ShardStateStore` (newest
checkpoint + WAL'd ack deltas); an exhausted budget marks the shard
``failed`` permanently — traffic routes around it forever.
"""

from __future__ import annotations

import os
import signal
from typing import Callable, Dict, List, Optional

from repro.resilience.supervisor import RestartBudget
from repro.shard import heartbeat, protocol
from repro.shard.heartbeat import FailureDetector
from repro.shard.transport import Transport, TransportError, pipe_pair

#: Shard lifecycle states.
SHARD_UP = "up"
SHARD_DOWN = "down"
SHARD_FAILED = "failed"
SHARD_DRAINED = "drained"

#: Child entry: (shard_id, transport) -> exit code. Runs post-fork.
ShardEntry = Callable[[int, Transport], int]

#: How long one blocking read waits before the lease is judged again.
POLL_S = 0.05


class ShardHandle:
    """Parent-side bookkeeping for one shard process."""

    def __init__(self, shard_id: int):
        # The shard owns RX queue *shard_id*: the RSS indirection's
        # queue ids are the process ids.
        self.shard_id = shard_id
        self.name = f"shard-{shard_id}"
        self.pid: Optional[int] = None
        self.transport: Optional[Transport] = None
        self.state = SHARD_DOWN  # until first spawn
        self.restarts = 0
        self.causes: List[str] = []
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
        num_shards: int,
        entry: ShardEntry,
        detector: Optional[FailureDetector] = None,
        restart_budget: Optional[RestartBudget] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.handles: Dict[int, ShardHandle] = {
            shard_id: ShardHandle(shard_id) for shard_id in range(num_shards)
        }
        self._entry = entry
        self.detector = detector or FailureDetector(
            heartbeat.LEASE_HEARTBEATS * heartbeat.HEARTBEAT_INTERVAL_NS
        )
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
        pair = pipe_pair()
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
        handle.rejoin_at_round = None
        self.detector.watch(handle.shard_id)

    def _release(self, handle: ShardHandle) -> None:
        """Let go of the process: stop watching, close the transport,
        SIGKILL, reap. The kill comes first so that a stopped (or
        wedged, or already dead) process is collected all the same and
        the blocking ``waitpid`` cannot wedge the parent."""
        self.detector.forget(handle.shard_id)
        if handle.transport is not None:
            handle.transport.close()
            handle.transport = None
        if handle.pid is not None:
            try:
                os.kill(handle.pid, signal.SIGKILL)
                os.waitpid(handle.pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            handle.pid = None

    # -- failure handling ----------------------------------------------------

    def declare_down(self, shard_id: int, cause: str) -> int:
        """Declare the shard dead; returns packets charged to the crash.

        Drains any control messages that made it out before the death
        first (the runtime does the same for acks — a batch whose ack is
        already in the pipe was processed, not lost).
        """
        handle = self.handles[shard_id]
        if not handle.live:
            return 0
        for message in handle.transport.recv_all():
            self.handle_control_message(handle, message)
        lost = handle.inflight_packets()
        handle.lost_at_crash += lost
        handle.inflight.clear()
        handle.causes.append(cause)
        handle.state = SHARD_DOWN
        self._release(handle)
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
        if topic == heartbeat.HEARTBEAT_TOPIC:
            shard_id, _seq, sent_ns = heartbeat.decode_heartbeat(message)
            self.detector.observe(shard_id, sent_ns)
            self.heartbeats_seen += 1
            return True
        return False

    # -- drain ---------------------------------------------------------------

    def drain_shard(self, handle: ShardHandle) -> Optional[dict]:
        """Graceful-shutdown handshake for one live shard.

        Sends ``drain`` and pumps until the ``drained`` reply arrives
        (acks encountered on the way are NOT consumed here — callers
        must have settled the dataplane first; FIFO ordering guarantees
        no ack can trail the drain reply). Returns the child's ledger
        payload, or None if the shard died — or sat silent past its
        lease and was declared — instead of draining.
        """
        if not handle.live:
            return None
        try:
            handle.transport.send(
                protocol.encode_json(
                    protocol.DRAIN_TOPIC, {"shard_id": handle.shard_id}
                )
            )
            while handle.drained_payload is None:
                message = handle.transport.recv(timeout=POLL_S)
                if message is not None:
                    self.handle_control_message(handle, message)
                elif handle.shard_id in self.detector.expired():
                    self.declare_down(handle.shard_id, "heartbeat-deadline")
                    return None
        except TransportError:
            self.declare_down(handle.shard_id, "transport-eof")
            return None
        handle.state = SHARD_DRAINED
        self._release(handle)
        return handle.drained_payload

    def shutdown(self) -> None:
        """Last-resort cleanup: kill and reap anything still running."""
        for handle in self.handles.values():
            self._release(handle)

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

