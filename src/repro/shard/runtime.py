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

One rule for time: **counts follow the round counter, liveness follows
the lease.** Dispatch is lock-step — one batch per live shard per
round, settled before the round ends, a dead shard rejoining a fixed
number of rounds later — so every count is a pure function of (traffic,
kill schedule) and nothing depends on how fast the host runs. A death
is declared the moment EOF/EPIPE proves it. A shard that is alive but
*stuck* proves nothing, so every blocking wait on a shard (its ack, its
checkpoint reply, its drain reply) is a wait under its heartbeat lease:
silent for a lease, it is SIGKILLed, declared ``heartbeat-deadline``,
charged its in-flight batch and restarted like any other death. A stall
costs one lease and one batch; it never costs the run.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.config import PipelineConfig
from repro.dpdk.nic import NicPort
from repro.dpdk.rss import RssHasher
from repro.mq.frames import Message
from repro.overload.classify import CLASSES, HANDSHAKE, classify_frame
from repro.resilience.invariants import Ledger
from repro.resilience.supervisor import RestartBudget
from repro.shard import protocol
from repro.shard.supervisor import (
    POLL_S,
    SHARD_DOWN,
    ShardHandle,
    ShardSupervisor,
)
from repro.shard.transport import Transport, TransportClosed, TransportError
from repro.shard.worker import shard_child_main

#: What to do with a down shard's traffic.
SHED_POLICIES = ("protect-handshakes", "reroute-all")


@dataclass
class ShardRunReport:
    """Everything a drained sharded run proved (or failed to)."""

    ledger: Ledger
    shards: Dict[str, dict]
    child_ledgers: Dict[str, dict]
    reconciliation: List[Tuple[str, bool, str]]
    shed_by_class: Dict[str, int]
    rerouted_packets: int
    restarts: int
    states: Dict[str, str]
    heartbeats_seen: int
    records: Dict[str, int]
    rounds: int = 0

    @property
    def ok(self) -> bool:
        return self.ledger.ok and all(ok for _, ok, _ in self.reconciliation)

    def failed_checks(self) -> List[str]:
        return [
            f"{name}: {detail}"
            for name, ok, detail in self.reconciliation
            if not ok
        ]

    def as_dict(self) -> dict:
        return {
            "ledger": self.ledger.as_dict(),
            "shards": self.shards,
            "child_ledgers": self.child_ledgers,
            "reconciliation": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.reconciliation
            ],
            "shed_by_class": self.shed_by_class,
            "rerouted_packets": self.rerouted_packets,
            "restarts": self.restarts,
            "states": self.states,
            "heartbeats_seen": self.heartbeats_seen,
            "records": self.records,
            "rounds": self.rounds,
            "ok": self.ok,
        }

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
            f"{klass}={count}" for klass, count in sorted(self.shed_by_class.items())
        )
        lines.append(
            f"  policy: rerouted={self.rerouted_packets} shed=[{shed}]"
        )
        for name, ok, detail in self.reconciliation:
            lines.append(f"  check {name}: {'OK' if ok else 'FAIL'} ({detail})")
        return "\n".join(lines)


class ShardedRuntime:
    """The parent process of a sharded run: router, supervisor, books.

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
        registry=None,
    ):
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

        self.supervisor = ShardSupervisor(
            num_shards,
            entry=self._shard_entry,
            restart_budget=RestartBudget(max_restarts=max_restarts_per_shard),
        )
        self.hasher = RssHasher(
            key=self.config.rss_key, num_queues=num_shards
        )
        # A write the shard does not read within a lease is a stall too.
        self._lease_s = self.supervisor.detector.deadline_ns / 1e9

        # Rerouted flows only: (4-tuple, family) -> fallback shard_id. A
        # flow's home shard is recomputed from its hash per packet — a
        # memo of it would grow by one entry per spoofed SYN for the
        # life of the parent. Direction-sensitive, as a packet's tuple is.
        self._flow_route: Dict[tuple, int] = {}
        # Scheduled kills that have not fired yet: shard_id -> kill_at_seq.
        self._faults: Dict[int, int] = {}

        # Global books.
        self.ingested = 0
        self.dropped = 0
        self.shed_by_class: Dict[str, int] = {klass: 0 for klass in CLASSES}
        self.rerouted_packets = 0
        self.records_out = 0
        self._round = 0
        self._started = False
        self._drained = False

        if registry is not None:
            self.bind_registry(registry)

    # -- composition ---------------------------------------------------------

    def _shard_entry(self, shard_id: int, transport: Transport) -> int:
        """Post-fork child body."""
        return shard_child_main(transport, shard_id, config=self.config)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.supervisor.start()
        for shard_id in list(self._faults):
            self._arm_fault(shard_id)

    # -- fault injection ------------------------------------------------------

    def schedule_kill(self, shard_id: int, at_seq: int) -> None:
        """Arm a deterministic SIGKILL: the shard dies the moment it
        receives its batch with seq >= *at_seq*, before acking it."""
        self._faults[shard_id] = at_seq
        if self._started:
            self._arm_fault(shard_id)

    def _arm_fault(self, shard_id: int) -> None:
        handle = self.supervisor.handles[shard_id]
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
            if self.supervisor.handles[candidate].live:
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
            if not self.supervisor.handles[target].live:
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
        if self.policy == "protect-handshakes":
            klass = classify_frame(data)
            if klass != HANDSHAKE:
                self.shed_by_class[klass] += 1
                return None
        fallback = self._live_fallback(home)
        if fallback is None:
            klass = classify_frame(data)
            self.shed_by_class[klass] += 1
            return None
        if key is not None:
            self._flow_route[key] = fallback
        self.rerouted_packets += 1
        return fallback

    # -- dataplane ------------------------------------------------------------

    def offer(self, packets: Iterable) -> None:
        """Dispatch one round of packets across the live shards."""
        if not self._started:
            self.start()
        if self._drained:
            raise RuntimeError("runtime already drained")
        self._round += 1
        self._restart_due_shards()
        per_shard = self._route_round(packets)

        # Lock-step: routing sent nothing to a shard that was not live,
        # and a dispatch can only take down the shard it writes to — so
        # every target is live when its turn comes.
        for shard_id in sorted(per_shard):
            self._dispatch(self.supervisor.handles[shard_id], per_shard[shard_id])
        for handle in self.supervisor.handles.values():
            self._await(handle, lambda: not handle.inflight)
        self._check_deadlines()
        if (
            self.checkpoint_every_batches
            and self._round % self.checkpoint_every_batches == 0
        ):
            self.checkpoint_all()

    def _send(self, handle: ShardHandle, message: Union[Message, bytes]) -> bool:
        """Write one message under the lease; False declares the shard."""
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

    def _handle_message(self, handle: ShardHandle, message: Message) -> None:
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
            self._deliver_records(records)
        else:
            self.supervisor.handle_control_message(handle, message)

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
        for handle in self.supervisor.handles.values():
            if handle.live:
                try:
                    self._absorb(handle)
                except TransportError:
                    self._on_transport_death(handle)
        for shard_id in self.supervisor.detector.expired():
            self._declare(self.supervisor.handles[shard_id], "heartbeat-deadline")

    def _absorb(self, handle: ShardHandle) -> None:
        """Non-blocking: take everything *handle* has already sent."""
        for message in handle.transport.recv_all():
            self._handle_message(handle, message)

    def _declare(self, handle: ShardHandle, cause: str) -> None:
        # Acks that escaped before the death are real work, not losses:
        # consume everything already decoded before charging the rest.
        self._absorb(handle)
        self.supervisor.declare_down(handle.shard_id, cause)
        handle.rejoin_at_round = self._round + self.restart_delay_batches

    def _restart_due_shards(self) -> None:
        for handle in self.supervisor.handles.values():
            if (
                handle.state == SHARD_DOWN
                and handle.rejoin_at_round is not None
                and self._round >= handle.rejoin_at_round
            ):
                self._restart_shard(handle)

    def _restart_shard(self, handle: ShardHandle) -> None:
        """Respawn from the last checkpoint reply plus one delta: the
        parent's books for the shard minus the counts in that state."""
        state = handle.checkpoint
        base = state or {}
        delta = {
            "processed": handle.acked_packets - int(base.get("packets_processed", 0)),
            "parse_errors": handle.acked_parse_errors - int(base.get("parse_errors", 0)),
            "records": handle.records_received - int(base.get("records_emitted", 0)),
        }
        self.supervisor.restart(
            handle.shard_id, restore_payload={"state": state, "delta": delta}
        )

    # -- records ---------------------------------------------------------------

    def _deliver_records(self, records: List[bytes]) -> None:
        self.records_out += len(records)
        if self._record_sink is not None:
            for record in records:
                self._record_sink(record)

    # -- checkpointing ---------------------------------------------------------

    def checkpoint_all(self) -> int:
        """Synchronous checkpoint of every live shard; returns how many."""
        written = 0
        for handle in self.supervisor.handles.values():
            if handle.live and self._checkpoint_shard(handle):
                written += 1
        return written

    def _checkpoint_shard(self, handle: ShardHandle) -> bool:
        """Ask for the shard's state; a shard that dies or stalls before
        replying keeps the checkpoint it had."""
        held = handle.checkpoint
        request = protocol.encode_json(
            protocol.CKPT_REQ_TOPIC, {"seq": self._round}
        )
        return self._send(handle, request) and self._await(
            handle, lambda: handle.checkpoint is not held
        )

    # -- drain -----------------------------------------------------------------

    def drain(self) -> ShardRunReport:
        """Settle, reconcile, shut down; returns the proven report."""
        if self._drained:
            raise RuntimeError("runtime already drained")
        self._drained = True
        reconciliation: List[Tuple[str, bool, str]] = []
        child_ledgers: Dict[str, dict] = {}

        # Every round settled before it ended: nothing is in flight.
        for handle in self.supervisor.handles.values():
            payload = self.supervisor.drain_shard(handle)
            if payload is None:
                continue
            ledger = payload["ledger"]
            child_ledgers[handle.name] = ledger
            for child_key, parent_value in (
                ("packets_processed", handle.acked_packets),
                ("parse_errors", handle.acked_parse_errors),
                ("records_emitted", handle.records_received),
            ):
                child_value = int(ledger[child_key])
                reconciliation.append(
                    (
                        f"{handle.name}.{child_key}",
                        child_value == parent_value,
                        f"child={child_value} parent={parent_value}",
                    )
                )

        self.supervisor.shutdown()

        ledger = self.global_ledger()
        reconciliation.append(
            ("global.conservation", ledger.ok, str(ledger))
        )
        report = ShardRunReport(
            ledger=ledger,
            shards={
                h.name: h.ledger() for h in self.supervisor.handles.values()
            },
            child_ledgers=child_ledgers,
            reconciliation=reconciliation,
            shed_by_class=dict(self.shed_by_class),
            rerouted_packets=self.rerouted_packets,
            restarts=self.supervisor.total_restarts,
            states=self.supervisor.states(),
            heartbeats_seen=self.supervisor.heartbeats_seen,
            # Every record a shard acked is handed to the sink in the
            # same step, so the two counts cannot diverge.
            records={"emitted": self.records_out, "delivered": self.records_out},
            rounds=self._round,
        )
        return report

    def global_ledger(self) -> Ledger:
        workers = self.supervisor.handles.values()
        return Ledger(
            ingested=self.ingested,
            processed=sum(h.acked_packets for h in workers),
            dropped=self.dropped,
            deadlettered=sum(h.deadlettered for h in workers),
            shed=sum(self.shed_by_class.values()),
            lost_at_crash=sum(h.lost_at_crash for h in workers),
            scope="shard",
        )

    def close(self) -> None:
        """Abortive cleanup for error paths (drain is the normal exit)."""
        self.supervisor.shutdown()

    # -- observability ---------------------------------------------------------

    def bind_registry(self, registry) -> None:
        self.supervisor.bind_registry(registry)
        rerouted = registry.counter(
            "ruru_shard_rerouted_total",
            help="Packets rerouted away from a down shard.",
        )
        shed = registry.counter(
            "ruru_shard_shed_total",
            help="Packets shed because their shard was down.",
            labels=("klass",),
        )

        def collect() -> None:
            rerouted.value = self.rerouted_packets
            for klass, count in self.shed_by_class.items():
                shed.labels(klass).value = count

        registry.register_collector(collect)
