"""The sharded runtime: RSS fan-out across real OS processes.

The parent *is* the NIC: it extracts each frame's 4-tuple, Toeplitz-
hashes it with the symmetric RSS key and routes the packet to the
worker shard owning that queue — so both directions of a flow land in
the same process, exactly as the in-process pipeline's
:class:`~repro.dpdk.nic.NicPort` guarantees. A flow→shard cache keeps
parent-side routing cheaper than the shards' per-packet work (the
hash is computed once per flow direction) and doubles as the reroute
table during failures: a decision made while a shard was down sticks
for the life of the flow, so a rerouted handshake's payload follows
it instead of bouncing back mid-measurement.

There is one shard parent, :class:`ShardedRuntime`: router, books and
every shard's process lifecycle. Each shard is a ``fork``\\ ed child
running :meth:`ShardedRuntime._shard_entry`; children always leave via
``os._exit``, so a forked interpreter never falls back into pytest or
the CLI's stack.

One rule for time: **counts follow the round counter, liveness follows
the lease.** Dispatch is lock-step — one batch per live shard per
round, settled before the round ends, a dead shard rejoining a fixed
number of rounds later — so every count is a pure function of (traffic,
kill schedule) and nothing depends on how fast the host runs.

One pump. In the parent every read of a shard's pipe is ``_absorb``
(take what is already there) or ``_await`` (block, under the lease),
every message read goes to one dispatcher for every topic, and every
write is ``_send``, also under the lease. A shard stops being live when
an EOF or EPIPE proves it dead, or when it is *stuck* — alive, pipes
open, silent — for one heartbeat lease
(:class:`~repro.shard.heartbeat.FailureDetector`) while the parent
waits on it: for its ack, its checkpoint reply, its drain reply or room
in its pipe. Either way ``_declare`` SIGKILLs it *before* reaping it
and charges its in-flight batch to ``lost_at_crash``: a stall costs one
lease and one batch, never the run.

The books must balance. Every offered packet meets exactly one of five
fates, and :meth:`ShardedRuntime.drain` proves it::

    ingested == processed + dropped + deadlettered + shed + lost_at_crash

with per-shard reconciliation on top: each drained child's
self-reported ledger must equal the parent's accounting for it.

A restart needs nothing the parent does not already hold: the last
checkpoint reply the shard sent (or none) and its acked counts. The
restarted child loads that state and adds one delta — the parent's
books for it minus the counts in the state — so its books balance to
the packet after any number of deaths, and nothing is written to disk.
A shard spends its :class:`~repro.resilience.RestartBudget` on the way;
an exhausted budget marks it ``failed``, and traffic routes around it
for the rest of the run.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.config import PipelineConfig
from repro.dpdk.nic import NicPort
from repro.dpdk.rss import RssHasher
from repro.mq.frames import Message
from repro.overload.classify import CLASSES, HANDSHAKE, classify_frame
from repro.resilience.invariants import Ledger
from repro.resilience.supervisor import RestartBudget
from repro.shard import heartbeat, protocol
from repro.shard.heartbeat import FailureDetector
from repro.shard.transport import Transport, TransportClosed, TransportError, pipe_pair
from repro.shard.worker import shard_child_main

#: What to do with a down shard's traffic.
SHED_POLICIES = ("protect-handshakes", "reroute-all")

#: Shard lifecycle states.
SHARD_UP = "up"
SHARD_DOWN = "down"
SHARD_FAILED = "failed"
SHARD_DRAINED = "drained"

#: How long one blocking read waits before the leases are judged again.
POLL_S = 0.05

#: The books' per-class shed terms.
SHED_PREFIX = "shard.shed."


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
        # Cumulative parent-side accounting (survives restarts).
        self.dispatched_packets = 0
        self.acked_packets = 0
        self.acked_parse_errors = 0
        self.records_received = 0
        self.lost_at_crash = 0
        self.deadlettered = 0
        self.rejoin_at_round: Optional[int] = None
        self.drained_payload: Optional[dict] = None
        # The state in the shard's last checkpoint reply (None before
        # the first): what a restart of it loads.
        self.checkpoint: Optional[dict] = None

    @property
    def live(self) -> bool:
        """Dispatchable right now."""
        return self.state == SHARD_UP

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


@dataclass
class ShardRunReport:
    """Everything a drained sharded run proved (or failed to).

    :attr:`counts` is the run's books — one flat ``{name: int}``,
    sorted by name, as an in-process run's
    :attr:`~repro.stack.builder.DrainReport.counts` is. ``states``,
    ``heartbeats_seen`` and ``rounds`` depend on the wall clock, so they
    stay out of the books.
    """

    ledger: Ledger
    shards: Dict[str, dict]
    reconciliation: List[Tuple[str, bool, str]]
    records: Dict[str, int]
    counts: Dict[str, int]
    states: Dict[str, str]
    heartbeats_seen: int
    rounds: int

    @property
    def ok(self) -> bool:
        return self.ledger.ok and all(ok for _, ok, _ in self.reconciliation)

    def failed_checks(self) -> List[str]:
        return [
            f"{name}: {detail}"
            for name, ok, detail in self.reconciliation
            if not ok
        ]

    def render(self) -> str:
        lines = [str(self.ledger)]
        for name in sorted(self.shards):
            ledger = self.shards[name]
            lines.append(
                f"  {name}: state={ledger['state']} "
                f"dispatched={ledger['dispatched']} acked={ledger['acked']} "
                f"lost_at_crash={ledger['lost_at_crash']} "
                f"restarts={ledger['restarts']}"
            )
        shed = ", ".join(
            f"{name[len(SHED_PREFIX):]}={count}"
            for name, count in self.counts.items()
            if name.startswith(SHED_PREFIX)
        )
        lines.append(
            f"  policy: rerouted={self.counts['shard.rerouted']} shed=[{shed}]"
        )
        for name, ok, detail in self.reconciliation:
            lines.append(f"  check {name}: {'OK' if ok else 'FAIL'} ({detail})")
        return "\n".join(lines)


class ShardedRuntime:
    """The parent process of a sharded run: router, books and every
    shard's process lifecycle.

    Args:
        num_shards: worker shard processes (one RX queue each).
        config: pipeline config shared with the shard workers (the
            RSS key and tracker knobs must match a single-process run
            for the equivalence property to hold).
        restart_delay_batches: rounds a dead shard stays down before
            its restart (models detection + respawn latency as virtual
            rounds).
        checkpoint_every_batches: every this many rounds each live shard
            is asked for its state, which a restart of it loads (so the
            flow table survives up to the cut); None asks never, and a
            restarted shard starts from an empty table with its books
            intact.
        policy: down-shard traffic policy (``protect-handshakes``
            reroutes handshakes and sheds the rest by class;
            ``reroute-all`` reroutes everything).
        max_restarts_per_shard: each shard's restart budget; a shard
            that would exceed it is ``failed`` for the rest of the run.
        record_sink: optional callable fed every encoded latency
            record.
    """

    def __init__(
        self,
        num_shards: int,
        config: Optional[PipelineConfig] = None,
        *,
        policy: str = "protect-handshakes",
        checkpoint_every_batches: Optional[int] = None,
        restart_delay_batches: int = 1,
        max_restarts_per_shard: int = 3,
        record_sink: Optional[Callable[[bytes], None]] = None,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {SHED_POLICIES}"
            )
        self.config = config or PipelineConfig()
        self.num_shards = num_shards
        self.policy = policy
        self.restart_delay_batches = max(1, restart_delay_batches)
        self.checkpoint_every_batches = checkpoint_every_batches
        self._record_sink = record_sink

        self.handles: Dict[int, ShardHandle] = {
            shard_id: ShardHandle(shard_id) for shard_id in range(num_shards)
        }
        self.detector = FailureDetector(
            heartbeat.LEASE_HEARTBEATS * heartbeat.HEARTBEAT_INTERVAL_NS
        )
        self.budget = RestartBudget(max_restarts=max_restarts_per_shard)
        self.hasher = RssHasher(
            key=self.config.rss_key, num_queues=num_shards
        )
        # A write the shard does not read within a lease is a stall too.
        self._lease_s = self.detector.deadline_ns / 1e9

        # Rerouted flows only: (4-tuple, family) -> fallback shard_id. A
        # flow's home shard is recomputed from its hash per packet — a
        # memo of it would grow by one entry per spoofed SYN for the
        # life of the parent. Direction-sensitive, as a packet's tuple is.
        self._flow_route: Dict[tuple, int] = {}
        # Scheduled kills that have not fired yet: shard_id -> kill_at_seq.
        self._faults: Dict[int, int] = {}

        # Global books.
        self.ingested = 0
        self.shed_by_class: Dict[str, int] = {klass: 0 for klass in CLASSES}
        self.rerouted_packets = 0
        self._round = 0
        self._started = False
        self._drained = False

    # -- processes ------------------------------------------------------------

    def _shard_entry(self, shard_id: int, transport: Transport) -> int:
        """Post-fork child body."""
        return shard_child_main(transport, shard_id, config=self.config)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for handle in self.handles.values():
            self._spawn(handle)
        for shard_id in list(self._faults):
            self._arm_fault(shard_id)

    def _spawn(self, handle: ShardHandle) -> None:
        """Fork one shard child; the parent adopts its transport side."""
        pair = pipe_pair()
        pid = os.fork()
        if pid == 0:
            # -- child: exits 1 unless the entry returns, whatever it raises.
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
                code = self._shard_entry(handle.shard_id, transport)
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

    # -- fault injection ------------------------------------------------------

    def schedule_kill(self, shard_id: int, at_seq: int) -> None:
        """Arm a deterministic SIGKILL: the shard dies the moment it
        receives its batch with seq >= *at_seq*, before acking it."""
        self._faults[shard_id] = at_seq
        if self._started:
            self._arm_fault(shard_id)

    def _arm_fault(self, shard_id: int) -> None:
        handle = self.handles[shard_id]
        if handle.live:
            self._send(
                handle,
                protocol.encode_json(
                    protocol.FAULT_TOPIC, {"kill_at_seq": self._faults[shard_id]}
                ),
            )

    # -- routing --------------------------------------------------------------

    def _live_fallback(self, home: int) -> Optional[int]:
        """The next live worker shard after *home*, ring order."""
        for step in range(1, self.num_shards):
            candidate = (home + step) % self.num_shards
            if self.handles[candidate].live:
                return candidate
        return None

    def _route_round(
        self, packets: Iterable
    ) -> Dict[int, List[Tuple[int, int, bytes]]]:
        """Route one round of packets; applies the down-shard policy."""
        per_shard: Dict[int, List[Tuple[int, int, bytes]]] = {}
        for packet in packets:
            self.ingested += 1
            data = packet.data
            key = NicPort._extract_tuple(data)
            if key is None:
                rss_hash, target = 0, self.hasher.queue_for_hash(0)
            else:
                rss_hash = self.hasher.hash_tuple(*key)
                target = self._flow_route.get(key)
                if target is None:
                    target = self.hasher.queue_for_hash(rss_hash)
            if not self.handles[target].live:
                target = self._place_down_packet(key, rss_hash, target, data)
                if target is None:
                    continue  # shed; already attributed
            per_shard.setdefault(target, []).append(
                (packet.timestamp_ns, rss_hash, data)
            )
        return per_shard

    def _place_down_packet(
        self, key, rss_hash: int, home: int, data: bytes
    ) -> Optional[int]:
        """Down-shard policy: reroute (returns new target) or shed (None).

        A reroute is recorded in the route map so the whole flow
        sticks to its fallback — measurement continuity beats locality.
        """
        fallback = None
        if self.policy == "reroute-all" or classify_frame(data) == HANDSHAKE:
            fallback = self._live_fallback(home)
        if fallback is None:
            self.shed_by_class[classify_frame(data)] += 1
            return None
        if key is not None:
            self._flow_route[key] = fallback
        self.rerouted_packets += 1
        return fallback

    # -- dataplane ------------------------------------------------------------

    def offer(self, packets: Iterable) -> None:
        """Dispatch one round of packets across the live shards."""
        if self._drained:
            raise RuntimeError("runtime already drained")
        self.start()
        self._round += 1
        for handle in self.handles.values():
            if handle.state == SHARD_DOWN and self._round >= handle.rejoin_at_round:
                self._restart(handle)
        per_shard = self._route_round(packets)

        # Lock-step: routing sent nothing to a shard that was not live,
        # and a dispatch can only take down the shard it writes to — so
        # every target is live when its turn comes.
        for shard_id in sorted(per_shard):
            self._dispatch(self.handles[shard_id], per_shard[shard_id])
        for handle in self.handles.values():
            self._await(handle, lambda: not handle.inflight)
        self._check_deadlines()
        if (
            self.checkpoint_every_batches
            and self._round % self.checkpoint_every_batches == 0
        ):
            self.checkpoint_all()

    def _send(self, handle: ShardHandle, message: Union[Message, bytes]) -> bool:
        """Every write to a shard: one message under the lease; False
        declares the shard."""
        try:
            handle.transport.send(message, timeout=self._lease_s)
        except TransportClosed:
            self._on_transport_death(handle)
        except TransportError:
            self._declare(handle, "heartbeat-deadline")
        else:
            return True
        return False

    def _dispatch(
        self, handle: ShardHandle, triples: List[Tuple[int, int, bytes]]
    ) -> None:
        seq = handle.next_seq
        handle.next_seq += 1
        if not self._send(handle, protocol.encode_dispatch(seq, triples)):
            # The batch never reached the shard: it is deadlettered,
            # not lost_at_crash — the distinction the ledger preserves.
            handle.deadlettered += len(triples)
            return
        handle.inflight[seq] = len(triples)
        handle.dispatched_packets += len(triples)

    # -- the pump ---------------------------------------------------------------

    def _await(self, handle: ShardHandle, done: Callable[[], bool]) -> bool:
        """Pump *handle* until *done()*; False if it was declared first.

        The only way to wait on a shard. Each ``POLL_S`` of silence the
        leases are judged, so a stuck shard ends the wait one lease
        after it went quiet instead of hanging the run.
        """
        while not done():
            if not handle.live:
                return False
            try:
                message = handle.transport.recv(timeout=POLL_S)
            except TransportError:
                self._on_transport_death(handle)
                return False
            if message is None:
                self._check_deadlines()
            else:
                self._handle_message(handle, message)
        return True

    def _absorb(self, handle: ShardHandle) -> None:
        """Non-blocking: take everything *handle* has already sent."""
        for message in handle.transport.recv_all():
            self._handle_message(handle, message)

    def _handle_message(self, handle: ShardHandle, message: Message) -> None:
        """The one dispatcher: every message a shard sends, by topic."""
        topic = message.topic
        if topic == protocol.ACK_TOPIC:
            seq, processed, parse_errors, records = protocol.decode_ack(message)
            if handle.inflight.pop(seq, None) is None:
                raise TransportError(
                    f"shard {handle.name} acked unknown batch {seq}"
                )
            handle.acked_packets += processed
            handle.acked_parse_errors += parse_errors
            handle.records_received += len(records)
            if self._record_sink is not None:
                for record in records:
                    self._record_sink(record)
        elif topic == heartbeat.HEARTBEAT_TOPIC:
            shard_id, _seq, sent_ns = heartbeat.decode_heartbeat(message)
            self.detector.observe(shard_id, sent_ns)
        elif topic == protocol.CKPT_TOPIC:
            handle.checkpoint = protocol.decode_state(message)["state"]
        elif topic == protocol.DRAINED_TOPIC:
            handle.drained_payload = protocol.decode_json(message)

    # -- failure handling ------------------------------------------------------

    def _on_transport_death(self, handle: ShardHandle) -> None:
        """EOF/EPIPE proves the process is gone: declare at once. The
        death is the scheduled kill's only if the fatal batch is the
        one in flight — and a fault fires once."""
        kill_at_seq = self._faults.get(handle.shard_id)
        if kill_at_seq is not None and any(
            seq >= kill_at_seq for seq in handle.inflight
        ):
            del self._faults[handle.shard_id]
            self._declare(handle, "scheduled-kill")
        else:
            self._declare(handle, "transport-eof")

    def _check_deadlines(self) -> None:
        """Judge every lease — after absorbing what every live shard has
        already said, so that time the parent spent elsewhere (waiting
        out one shard's lease, or asleep between rounds) is never
        charged to a healthy shard whose heartbeats sat unread."""
        for handle in self.handles.values():
            if handle.live:
                try:
                    self._absorb(handle)
                except TransportError:
                    self._on_transport_death(handle)
        for shard_id in self.detector.expired():
            self._declare(self.handles[shard_id], "heartbeat-deadline")

    def _declare(self, handle: ShardHandle, cause: str) -> int:
        """Declare *handle* down: kill, reap, and charge its in-flight
        packets to the crash (returned). A shard already down is left
        as it is."""
        if not handle.live:
            return 0
        # Acks that escaped before the death are real work, not losses:
        # consume everything already decoded before charging the rest.
        self._absorb(handle)
        lost = sum(handle.inflight.values())
        handle.lost_at_crash += lost
        handle.inflight.clear()
        handle.causes.append(cause)
        handle.state = SHARD_DOWN
        handle.rejoin_at_round = self._round + self.restart_delay_batches
        self._release(handle)
        return lost

    def _restart(self, handle: ShardHandle) -> bool:
        """Respawn within budget from the last checkpoint reply plus one
        delta: the parent's books for the shard minus the counts in that
        state. False if the budget is spent — the shard is failed for
        good — or the new process is declared before its restore is
        written."""
        if handle.state != SHARD_DOWN:
            raise RuntimeError(
                f"cannot restart {handle.name} in state {handle.state!r}"
            )
        if not self.budget.consume(handle.name):
            handle.state = SHARD_FAILED
            return False
        state = handle.checkpoint
        base = state or {}
        delta = {
            "processed": handle.acked_packets - int(base.get("packets_processed", 0)),
            "parse_errors": handle.acked_parse_errors - int(base.get("parse_errors", 0)),
            "records": handle.records_received - int(base.get("records_emitted", 0)),
        }
        self._spawn(handle)
        handle.restarts += 1
        return self._send(
            handle,
            protocol.encode_state(protocol.RESTORE_TOPIC, {"state": state, "delta": delta}),
        )

    # -- checkpointing ---------------------------------------------------------

    def checkpoint_all(self) -> int:
        """Ask every live shard for its state; returns how many replied.
        A shard that dies or stalls before replying keeps the checkpoint
        it had."""
        request = protocol.encode_json(protocol.CKPT_REQ_TOPIC, {"seq": self._round})
        written = 0
        for handle in self.handles.values():
            held = handle.checkpoint
            if (
                handle.live
                and self._send(handle, request)
                and self._await(handle, lambda: handle.checkpoint is not held)
            ):
                written += 1
        return written

    # -- drain -----------------------------------------------------------------

    def drain(self) -> ShardRunReport:
        """Settle, reconcile, shut down; returns the proven report."""
        if self._drained:
            raise RuntimeError("runtime already drained")
        self._drained = True
        reconciliation: List[Tuple[str, bool, str]] = []

        # Every round settled before it ended: nothing is in flight.
        for handle in self.handles.values():
            payload = self._drain_shard(handle)
            if payload is None:
                continue
            for child_key, parent_value in (
                ("packets_processed", handle.acked_packets),
                ("parse_errors", handle.acked_parse_errors),
                ("records_emitted", handle.records_received),
            ):
                child_value = int(payload["ledger"][child_key])
                reconciliation.append((
                    f"{handle.name}.{child_key}",
                    child_value == parent_value,
                    f"child={child_value} parent={parent_value}",
                ))
        self.close()

        ledger = self._ledger()
        reconciliation.append(("global.conservation", ledger.ok, str(ledger)))
        shards = {h.name: h.ledger() for h in self.handles.values()}
        counts = self.books()
        # Every record a shard acked is handed to the sink in the same
        # step, so the two counts cannot diverge.
        records = counts["shard.records.delivered"]
        return ShardRunReport(
            ledger=ledger,
            shards=shards,
            reconciliation=reconciliation,
            records={"emitted": records, "delivered": records},
            counts=counts,
            states={name: entry["state"] for name, entry in shards.items()},
            heartbeats_seen=self.detector.heartbeats_observed,
            rounds=self._round,
        )

    def _drain_shard(self, handle: ShardHandle) -> Optional[dict]:
        """The graceful-shutdown handshake with one shard: ``drain`` out,
        then pump until the ``drained`` reply (the dataplane settled
        first, and FIFO order keeps any ack ahead of the reply). Returns
        the child's payload, or None if the shard was not live or was
        declared — it died, or sat silent for a lease — instead."""
        request = protocol.encode_json(
            protocol.DRAIN_TOPIC, {"shard_id": handle.shard_id}
        )
        if not (
            handle.live
            and self._send(handle, request)
            and self._await(handle, lambda: handle.drained_payload is not None)
        ):
            return None
        handle.state = SHARD_DRAINED
        self._release(handle)
        return handle.drained_payload

    def _ledger(self) -> Ledger:
        """The five-term global ledger, as the parent's books stand."""
        workers = self.handles.values()
        return Ledger(
            ingested=self.ingested,
            processed=sum(h.acked_packets for h in workers),
            dropped=0,  # a batch the parent cannot write is deadlettered
            deadlettered=sum(h.deadlettered for h in workers),
            shed=sum(self.shed_by_class.values()),
            lost_at_crash=sum(h.lost_at_crash for h in workers),
            scope="shard",
        )

    def books(self) -> Dict[str, int]:
        """The run's books: one flat ``{name: int}``, sorted by name —
        live while the run goes (what a scrape renders), final once it
        has drained (:attr:`ShardRunReport.counts`, where every shard's
        ``up`` is 0)."""
        ledger, workers = self._ledger(), self.handles.values()
        records = sum(h.records_received for h in workers)
        counts = {
            "scenario.packets_offered": self.ingested,
            "scenario.measurements": records,
            "shard.ledger.shed": ledger.shed,
            "shard.ledger.lost_at_crash": ledger.lost_at_crash,
            "shard.records.delivered": records,
            "shard.rerouted": self.rerouted_packets,
            "shard.restarts": sum(h.restarts for h in workers),
        }
        for term in ("ingested", "processed", "dropped", "deadlettered", "balance"):
            counts[f"ledger.{term}"] = getattr(ledger, term)
        for klass, count in self.shed_by_class.items():
            counts[SHED_PREFIX + klass] = count
        for h in workers:
            counts.update({
                f"shard.{h.name}.dispatched": h.dispatched_packets,
                f"shard.{h.name}.acked": h.acked_packets,
                f"shard.{h.name}.lost_at_crash": h.lost_at_crash,
                f"shard.{h.name}.restarts": h.restarts,
                f"shard.{h.name}.up": int(h.live),
            })
        return dict(sorted(counts.items()))

    def close(self) -> None:
        """Kill and reap anything still running: the abortive cleanup
        for error paths, and the last step of a drain."""
        for handle in self.handles.values():
            self._release(handle)
