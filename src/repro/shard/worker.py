"""Shard child processes: the ack books and the child's main loop.

A worker shard is a process-isolated
:class:`repro.core.worker.QueueWorker`: the same body — one packet
parser feeding one handshake tracker — owning exactly one RX queue's
traffic (the parent's RSS router guarantees flow affinity, so both
directions of a flow land here). There is no NIC or ring inside the
shard — the wire transport *is* the queue, and each batch it carries is
one burst. What is the child's own is the bookkeeping around that body
(:class:`ShardBooks`): what it has acked, and how to restore it from
what the parent sends a restarted shard — its last checkpoint reply and
one delta of acked counts.

The main loop never returns into the caller's stack: children are
forked, and a forked Python process that falls back into pytest or the
CLI would re-run atexit handlers and flush duplicated stdio. The
parent's fork wraps the loop and ``os._exit``\\ s with its return
code.
"""

from __future__ import annotations

import os
import signal
import time
from typing import List, Optional, Tuple

from repro.core.config import PipelineConfig
from repro.core.stats import PipelineStats
from repro.core.worker import QueueWorker
from repro.dpdk.mbuf import RxRow
from repro.mq.codec import encode_latency_record
from repro.mq.frames import Message
from repro.shard import protocol
from repro.shard.heartbeat import HEARTBEAT_INTERVAL_NS, encode_heartbeat
from repro.shard.transport import Transport, TransportError


class ShardBooks:
    """One shard's ack accounting around its :class:`QueueWorker`.

    The worker is the in-process one, unchanged (flow sampling and the
    sweep cadence included), so a sharded run and a single-process run
    produce identical measurements for identical routed traffic.
    """

    def __init__(self, shard_id: int, config: Optional[PipelineConfig] = None):
        self._records: List[bytes] = []
        self._stats = PipelineStats()
        self.worker = QueueWorker(
            None,
            shard_id,
            config=config,
            sink=lambda record: self._records.append(
                encode_latency_record(record)
            ),
            pipeline_stats=self._stats,
        )
        self.records_emitted = 0

    def process_batch(
        self, seq: int, packets: List[Tuple[int, int, bytes]]
    ) -> Message:
        """Process one routed batch; returns the ack message."""
        parse_errors_before = self._stats.parse_errors
        # The ring row's shape, minus what the wire does not carry: a
        # parse (the worker makes one from the bytes) and a pool.
        make_row, queue_id = RxRow._make, self.worker.queue_id
        self.worker.process_burst(
            [make_row((ts, rss, None, data, queue_id, None)) for ts, rss, data in packets]
        )
        records = self._records
        self._records = []
        self.records_emitted += len(records)
        return protocol.encode_ack(
            seq,
            processed=len(packets),
            parse_errors=self._stats.parse_errors - parse_errors_before,
            records=records,
        )

    # -- restore -------------------------------------------------------------

    def state_dict(self) -> dict:
        """The worker's fragment plus the ack counters."""
        state = self.worker.state_dict()
        state.update(
            parse_errors=self._stats.parse_errors,
            records_emitted=self.records_emitted,
        )
        return state

    def load_state(self, state: dict) -> None:
        self.worker.load_state(state)
        self._stats.parse_errors = int(state["parse_errors"])
        self.records_emitted = int(state["records_emitted"])

    def apply_ack_delta(self, delta: dict) -> None:
        """Add what the parent acked since the state was cut.

        The state restores the tracker and counters as of its cut (or
        nothing, before the first checkpoint); the parent's books hold
        every *acked* batch since. Adding the difference makes this
        shard's final self-reported ledger agree exactly with what the
        parent accounted — the flow-table contents of those batches are
        the bounded measurement loss a crash costs (you cannot replay
        live wire traffic), but the *books* balance to the packet.
        """
        self.worker.packets_processed += int(delta["processed"])
        self._stats.parse_errors += int(delta["parse_errors"])
        self.records_emitted += int(delta["records"])

    def ledger(self) -> dict:
        return {
            "packets_processed": self.worker.packets_processed,
            "packets_sampled_out": self.worker.packets_sampled_out,
            "parse_errors": self._stats.parse_errors,
            "records_emitted": self.records_emitted,
        }


def shard_child_main(
    transport: Transport,
    shard_id: int,
    config: Optional[PipelineConfig] = None,
) -> int:
    """The worker shard's process body; returns an exit code.

    Protocol handling is strictly sequential (one transport, FIFO), so
    a checkpoint request cuts between batches — the same consistent-cut
    property the in-process stage graph gets from batch boundaries.
    """
    books = ShardBooks(shard_id, config=config)
    kill_at_seq: Optional[int] = None
    hb_seq = 0
    last_hb_ns = 0
    recv_timeout_s = HEARTBEAT_INTERVAL_NS / 4 / 1e9
    try:
        while True:
            now_ns = time.monotonic_ns()
            if now_ns - last_hb_ns >= HEARTBEAT_INTERVAL_NS:
                transport.send(encode_heartbeat(shard_id, hb_seq))
                hb_seq += 1
                last_hb_ns = now_ns
            message = transport.recv(timeout=recv_timeout_s)
            if message is None:
                continue
            topic = message.topic
            if topic == protocol.BATCH_TOPIC:
                seq, packets = protocol.decode_dispatch(message)
                if kill_at_seq is not None and seq >= kill_at_seq:
                    # The scheduled fault: die *hard* while holding this
                    # batch, exactly as a segfault would — no ack, no
                    # flush, no goodbye. The parent must account the
                    # batch as lost_at_crash and restart us from what it
                    # holds.
                    os.kill(os.getpid(), signal.SIGKILL)
                transport.send(books.process_batch(seq, packets))
            elif topic == protocol.CKPT_REQ_TOPIC:
                request = protocol.decode_json(message)
                transport.send(protocol.encode_state(
                    protocol.CKPT_TOPIC,
                    {"seq": int(request.get("seq", 0)), "state": books.state_dict()},
                ))
            elif topic == protocol.RESTORE_TOPIC:
                payload = protocol.decode_state(message)
                if payload["state"] is not None:
                    books.load_state(payload["state"])
                books.apply_ack_delta(payload["delta"])
            elif topic == protocol.FAULT_TOPIC:
                kill_at_seq = protocol.decode_json(message).get("kill_at_seq")
            elif topic == protocol.DRAIN_TOPIC:
                transport.send(protocol.encode_json(
                    protocol.DRAINED_TOPIC,
                    {"shard_id": shard_id, "ledger": books.ledger()},
                ))
                return 0
            # Unknown topics are ignored: a newer parent may speak newer
            # control verbs; the dataplane topics above are versioned by
            # the wire layer.
    except TransportError:
        return 1  # the parent is gone (or desynced): nothing to serve
