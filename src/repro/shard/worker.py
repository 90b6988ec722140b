"""Shard child processes: the per-queue worker body and its main loop.

A worker shard is the process-isolated analogue of
:class:`repro.core.worker.QueueWorker`: one packet parser feeding one
handshake tracker, owning exactly one RX queue's traffic (the parent's
RSS router guarantees flow affinity, so both directions of a flow land
here). There is no NIC or ring inside the shard — the wire transport
*is* the queue.

The main loop never returns into the caller's stack: children are
forked, and a forked Python process that falls back into pytest or the
CLI would re-run atexit handlers and flush duplicated stdio. The
supervisor wraps the loop and ``os._exit``\\ s with its return
code.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.handshake import HandshakeTracker
from repro.mq.codec import encode_latency_record
from repro.mq.frames import Message
from repro.net.parser import PacketParser, ParseError
from repro.shard import protocol
from repro.shard.heartbeat import encode_heartbeat
from repro.shard.transport import Transport, TransportClosed, TransportError

#: Default wall-clock heartbeat cadence for shard children.
HEARTBEAT_INTERVAL_NS = 25_000_000  # 25 ms


class ShardWorker:
    """One shard's processing engine: parser + tracker + counters.

    Mirrors :class:`~repro.core.worker.QueueWorker`'s shape (including
    flow sampling and the sweep cadence) so a sharded run and a
    single-process run produce identical measurements for identical
    routed traffic.
    """

    def __init__(self, shard_id: int, config: Optional[PipelineConfig] = None):
        self.shard_id = shard_id
        self.config = config or PipelineConfig()
        self.parser = PacketParser()
        self._records: List[bytes] = []
        self.tracker = HandshakeTracker(
            config=self.config,
            queue_id=shard_id,
            sink=lambda record: self._records.append(
                encode_latency_record(record)
            ),
        )
        self.packets_processed = 0
        self.packets_sampled_out = 0
        self.parse_errors = 0
        self.records_emitted = 0
        self.batches_acked = 0
        self.last_seq = 0
        self._latest_ns = 0

    def process_batch(
        self, seq: int, packets: List[Tuple[int, int, bytes]]
    ) -> Message:
        """Process one routed batch; returns the ack message."""
        modulus = self.config.flow_sample_modulus
        parse_errors_before = self.parse_errors
        for timestamp_ns, rss_hash, data in packets:
            self.packets_processed += 1
            if timestamp_ns > self._latest_ns:
                self._latest_ns = timestamp_ns
            if modulus > 1 and rss_hash % modulus:
                self.packets_sampled_out += 1
                continue
            try:
                parsed = self.parser.parse(data, timestamp_ns)
            except ParseError:
                self.parse_errors += 1
                continue
            self.tracker.process(parsed, rss_hash=rss_hash)
        self.tracker.maybe_sweep(self._latest_ns)
        records = self._records
        self._records = []
        self.records_emitted += len(records)
        self.batches_acked += 1
        self.last_seq = seq
        return protocol.encode_ack(
            seq,
            processed=len(packets),
            parse_errors=self.parse_errors - parse_errors_before,
            records=records,
        )

    # -- durability ----------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "packets_processed": self.packets_processed,
            "packets_sampled_out": self.packets_sampled_out,
            "parse_errors": self.parse_errors,
            "records_emitted": self.records_emitted,
            "batches_acked": self.batches_acked,
            "last_seq": self.last_seq,
            "latest_ns": self._latest_ns,
            "tracker": self.tracker.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        if int(state["shard_id"]) != self.shard_id:
            raise ValueError(
                f"state for shard {state['shard_id']} loaded into "
                f"shard {self.shard_id}"
            )
        self.packets_processed = int(state["packets_processed"])
        self.packets_sampled_out = int(state["packets_sampled_out"])
        self.parse_errors = int(state["parse_errors"])
        self.records_emitted = int(state["records_emitted"])
        self.batches_acked = int(state["batches_acked"])
        self.last_seq = int(state["last_seq"])
        self._latest_ns = int(state["latest_ns"])
        self.tracker.load_state(state["tracker"])

    def apply_ack_deltas(self, deltas: List[dict]) -> int:
        """Replay WAL'd ack deltas on top of a checkpoint.

        The checkpoint restores the tracker and counters as of its
        cut; the parent's per-shard WAL holds the *acked* batches
        since. Replaying their counter deltas makes this shard's final
        self-reported ledger agree exactly with what the parent
        accounted — the flow-table contents of those batches are the
        bounded measurement loss a crash costs (you cannot replay live
        wire traffic), but the *books* balance to the packet.
        """
        for delta in deltas:
            self.packets_processed += int(delta["processed"])
            self.parse_errors += int(delta["parse_errors"])
            self.records_emitted += int(delta["records"])
            self.batches_acked += 1
            self.last_seq = max(self.last_seq, int(delta["seq"]))
        return len(deltas)

    def ledger(self) -> dict:
        return {
            "packets_processed": self.packets_processed,
            "packets_sampled_out": self.packets_sampled_out,
            "parse_errors": self.parse_errors,
            "records_emitted": self.records_emitted,
            "batches_acked": self.batches_acked,
            "last_seq": self.last_seq,
        }


def shard_child_main(
    transport: Transport,
    shard_id: int,
    config: Optional[PipelineConfig] = None,
    heartbeat_interval_ns: int = HEARTBEAT_INTERVAL_NS,
) -> int:
    """The worker shard's process body; returns an exit code.

    Protocol handling is strictly sequential (one transport, FIFO), so
    a checkpoint request cuts between batches — the same consistent-cut
    property the in-process stage graph gets from batch boundaries.
    """
    worker = ShardWorker(shard_id, config=config)
    kill_at_seq: Optional[int] = None
    hb_seq = 0
    last_hb_ns = 0
    recv_timeout_s = heartbeat_interval_ns / 4 / 1e9
    while True:
        now_ns = time.monotonic_ns()
        if now_ns - last_hb_ns >= heartbeat_interval_ns:
            try:
                transport.send(encode_heartbeat(shard_id, hb_seq))
            except (TransportClosed, TransportError):
                return 1  # parent is gone; nothing to serve
            hb_seq += 1
            last_hb_ns = now_ns
        try:
            message = transport.recv(timeout=recv_timeout_s)
        except (TransportClosed, TransportError):
            return 1
        if message is None:
            continue
        topic = message.topic
        if topic == protocol.BATCH_TOPIC:
            seq, packets = protocol.decode_batch(message)
            if kill_at_seq is not None and seq >= kill_at_seq:
                # The scheduled fault: die *hard* while holding this
                # batch, exactly as a segfault would — no ack, no
                # flush, no goodbye. The parent must account the batch
                # as lost_at_crash and recover us from the checkpoint.
                os.kill(os.getpid(), signal.SIGKILL)
            ack = worker.process_batch(seq, packets)
            try:
                transport.send(ack)
            except (TransportClosed, TransportError):
                return 1
        elif topic == protocol.CKPT_REQ_TOPIC:
            request = protocol.decode_json(message)
            reply = protocol.encode_json(
                protocol.CKPT_TOPIC,
                {
                    "seq": int(request.get("seq", 0)),
                    "state": worker.state_dict(),
                },
            )
            try:
                transport.send(reply)
            except (TransportClosed, TransportError):
                return 1
        elif topic == protocol.RESTORE_TOPIC:
            payload = protocol.decode_json(message)
            if payload.get("state") is not None:
                worker.load_state(payload["state"])
            worker.apply_ack_deltas(payload.get("deltas", []))
            fault = payload.get("fault") or {}
            if fault.get("kill_at_seq") is not None:
                kill_at_seq = int(fault["kill_at_seq"])
        elif topic == protocol.FAULT_TOPIC:
            payload = protocol.decode_json(message)
            if payload.get("kill_at_seq") is not None:
                kill_at_seq = int(payload["kill_at_seq"])
            else:
                kill_at_seq = None
        elif topic == protocol.DRAIN_TOPIC:
            reply = protocol.encode_json(
                protocol.DRAINED_TOPIC,
                {"shard_id": shard_id, "ledger": worker.ledger()},
            )
            try:
                transport.send(reply)
            except (TransportClosed, TransportError):
                return 1
            return 0
        # Unknown topics are ignored: a newer parent may speak newer
        # control verbs; the dataplane topics above are versioned by
        # the wire layer.
