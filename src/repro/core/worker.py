"""Per-queue processing worker.

Ruru allocates "different DPDK processing threads … on separate CPU
cores", one per receive queue. A :class:`QueueWorker` is that thread's
body: for each frame of a burst, flow-sample on the RSS hash and feed
the frame's parse to the handshake tracker; then hand the observers the
burst's parses and sweep the flow table when due. Emitted measurements
go to the worker's sink — in the full pipeline, a ZeroMQ-style PUSH
socket.

The body has two callers, both handing it :class:`~repro.dpdk.mbuf.RxRow`
rows: :meth:`QueueWorker.poll`, fed by one of the NIC's rx rings (its rows
carry the port's header pass), and the shard child (:mod:`repro.shard.worker`),
whose transport carries raw bytes (its rows carry no parse: parsed here).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.core.config import PipelineConfig
from repro.core.handshake import HandshakeTracker, MeasurementSink
from repro.core.stats import PipelineStats
from repro.dpdk.mbuf import RxRow
from repro.dpdk.nic import NicPort
from repro.net.parser import PacketParser, ParsedPacket


class QueueWorker:
    """Drains one rx queue's traffic into one handshake tracker.

    Args:
        nic: the port whose ring :meth:`poll` drains; None for a worker
            fed through :meth:`process_burst` alone.
        queue_id: the rx queue (or shard) this worker owns; stamped on
            every record it emits.
        pipeline_stats: where parse errors are counted, by reason.
    """

    def __init__(
        self,
        nic: Optional[NicPort],
        queue_id: int,
        config: Optional[PipelineConfig] = None,
        sink: Optional[MeasurementSink] = None,
        pipeline_stats: Optional[PipelineStats] = None,
        observers: Optional[List[Callable]] = None,
    ):
        self.nic = nic
        self.queue_id = queue_id
        self.config = config or PipelineConfig()
        self.parser = PacketParser()
        self.tracker = HandshakeTracker(
            config=self.config, queue_id=queue_id, sink=sink
        )
        self.pipeline_stats = pipeline_stats
        # In-pipeline taps (e.g. the SYN-flood detector), each handed a
        # burst's successfully parsed packets once, after the tracker.
        self.observers: List[Callable] = list(observers or [])
        self.packets_processed = 0
        self.packets_sampled_out = 0
        self._latest_ns = 0

    def poll(self) -> int:
        """One poll iteration: process up to one burst; returns count.

        This is the body :class:`~repro.core.pipeline.RuruPipeline`
        keeps on its poll list, one per queue.
        """
        rows = self.nic.rx_burst(self.queue_id, self.config.burst_size)
        if not rows:
            return 0
        self.process_burst(rows)
        self.nic.pool.give_back(len(rows))
        return len(rows)

    def process_burst(self, rows: Iterable[RxRow]) -> None:
        """Sample and track each row's frame, hand the observers the
        burst's parses, then run the sweep check.

        A row's ``parsed`` is the port's header pass — a ``ParsedPacket``,
        or the reject reason, counted here, where the frame is
        processed — or None, and its ``data`` is parsed here.
        """
        # Flow sampling: the symmetric RSS hash selects whole flows
        # (both directions share the hash), so a sampled-out flow
        # never costs tracker state, nor a parse of raw bytes.
        modulus = self.config.flow_sample_modulus
        process = self.tracker.process
        observers = self.observers
        accepted = [] if observers else None  # gathered only for observers
        latest_ns = self._latest_ns
        processed = 0
        for timestamp_ns, rss_hash, frame, data, _, _ in rows:
            processed += 1
            if timestamp_ns > latest_ns:
                latest_ns = timestamp_ns
            if modulus > 1 and rss_hash % modulus:
                self.packets_sampled_out += 1
                continue
            if frame.__class__ is not ParsedPacket:
                if frame is None:
                    frame = self.parser.header_pass(data, timestamp_ns)
                if frame.__class__ is str:
                    if self.pipeline_stats is not None:
                        self.pipeline_stats.record_parse_error(frame)
                    continue
            process(frame, rss_hash)
            if accepted is not None:
                accepted.append(frame)
        self.packets_processed += processed
        self._latest_ns = latest_ns
        if accepted:
            for observer in observers:
                observer(accepted)
        self.tracker.maybe_sweep(latest_ns)

    @property
    def stats(self):
        """This worker's tracker counters."""
        return self.tracker.stats

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot this worker's counters and its handshake tracker."""
        return {
            "queue_id": self.queue_id,
            "packets_processed": self.packets_processed,
            "packets_sampled_out": self.packets_sampled_out,
            "latest_ns": self._latest_ns,
            "tracker": self.tracker.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (extra keys — the
        ``polls`` of older checkpoints — are ignored)."""
        if int(state["queue_id"]) != self.queue_id:
            raise ValueError(
                f"worker state for queue {state['queue_id']} loaded "
                f"into queue {self.queue_id}"
            )
        self.packets_processed = int(state["packets_processed"])
        self.packets_sampled_out = int(state["packets_sampled_out"])
        self._latest_ns = int(state["latest_ns"])
        self.tracker.load_state(state["tracker"])
