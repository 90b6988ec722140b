"""End-to-end measurement pipeline — Fig 2 of the paper.

Wiring: frames → :class:`~repro.dpdk.nic.NicPort` (symmetric RSS into
``num_queues`` rx rings) → one :class:`~repro.core.worker.QueueWorker`
per queue, its poll body on the pipeline's poll list → latency records
out through a sink (in the full deployment, the ZeroMQ publisher that
:mod:`repro.analytics` subscribes to).

Feeding is batched: a burst of frames is offered to the NIC, then
every worker is polled, round-robin, until the rings drain, then the next
burst — the software analogue of workers keeping up with line rate
while bounded rings absorb bursts. Ring overflow and mbuf exhaustion
surface as NIC drops in the stats, exactly as ``imissed`` would on
hardware.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, List, Optional

from repro.core.config import PipelineConfig
from repro.core.feed import FEED_BATCH, drive
from repro.core.handshake import MeasurementSink
from repro.core.latency import LatencyRecord
from repro.core.stats import PipelineStats, TrackerStats
from repro.core.worker import QueueWorker
from repro.dpdk.clock import VirtualClock
from repro.dpdk.mbuf import MbufPool
from repro.dpdk.nic import NicPort
from repro.net.packet import Packet

_TIMESTAMP_NS = attrgetter("timestamp_ns")


class RuruPipeline:
    """The assembled Ruru fast path.

    Args:
        config: pipeline tunables; validated on construction.
        sink: receives every :class:`LatencyRecord`. When None,
            records are collected in :attr:`measurements`.
        feed_batch: frames offered to the NIC between worker polls.
        supervisor: a :class:`repro.resilience.Supervisor`. When given,
            every worker poll body is wrapped so a crash is caught,
            counted as a restart and retried next round — with the
            worker's ring and flow table intact, so accepted packets
            are never lost to a crash.
        poll_wrapper: ``(poll, role) -> poll`` applied to each worker
            poll body *inside* the supervision boundary; the chaos
            harness uses it to inject worker crashes.
        admission: an :class:`repro.overload.OverloadController`,
            passed only by the stack builder (whose ``OverloadStage``
            ticks it). When given, the NIC runs its priority triage on
            every frame and frames shed by policy are counted as
            ``packets_shed`` instead of ``nic_drops``.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        sink: Optional[MeasurementSink] = None,
        feed_batch: int = FEED_BATCH,
        observers=None,
        supervisor=None,
        poll_wrapper=None,
        admission=None,
    ):
        self.config = config or PipelineConfig()
        self.config.validate()
        if feed_batch <= 0:
            raise ValueError("feed_batch must be positive")
        self.feed_batch = feed_batch
        self.clock = VirtualClock()
        self.measurements: List[LatencyRecord] = []
        self._sink: MeasurementSink = sink or self.measurements.append
        #: The pipeline's own counters, plain ints the hot path writes;
        #: the workers keep theirs, and :attr:`stats` folds them in.
        self.counters = PipelineStats()
        self.quiesced = False

        self.admission = admission
        pool = MbufPool(size=self.config.mbuf_pool_size, name="rx_pool")
        self.nic = NicPort(
            num_queues=self.config.num_queues,
            rss_key=self.config.rss_key,
            mbuf_pool=pool,
            queue_capacity=self.config.queue_capacity,
            admission=admission,
        )
        self.supervisor = supervisor
        # One poll body per worker, wrapped as asked; a drain round
        # calls each once, in queue order.
        self._polls: List[Callable[[], int]] = []
        self.workers: List[QueueWorker] = []
        for queue_id in range(self.config.num_queues):
            worker = QueueWorker(
                nic=self.nic,
                queue_id=queue_id,
                config=self.config,
                sink=self._sink,
                pipeline_stats=self.counters,
                observers=list(observers or []),
            )
            self.workers.append(worker)
            role = f"rx-worker-q{queue_id}"
            poll = worker.poll
            if poll_wrapper is not None:
                poll = poll_wrapper(poll, role)
            if supervisor is not None:
                poll = supervisor.supervise(poll, role)
            self._polls.append(poll)

    # -- feeding -----------------------------------------------------------

    def offer(self, packet: Packet) -> bool:
        """Offer one frame to the NIC; False if the NIC dropped it."""
        return self.offer_burst((packet,)) == 1

    def offer_burst(self, packets: Iterable[Packet]) -> int:
        """Offer a burst of frames to the NIC; returns how many it
        queued. The books — offered, queued, shed, dropped, the virtual
        clock — are settled once for the burst."""
        stats = self.counters
        if not isinstance(packets, (list, tuple)):
            packets = list(packets)  # sized, and walked twice, below
        offered = len(packets)
        if self.quiesced:
            stats.packets_rejected_quiesced += offered
            return 0
        if not offered:
            return 0
        stats.packets_offered += offered
        self.clock.advance_to(max(map(_TIMESTAMP_NS, packets)))
        queued = self.nic.receive_burst(packets)
        stats.packets_queued += queued
        if queued < offered:
            admission = self.admission
            shed = admission.take_nic_shed() if admission is not None else 0
            stats.packets_shed += shed
            stats.nic_drops += offered - queued - shed
        return queued

    def quiesce(self) -> None:
        """Stop accepting frames at the NIC (step one of graceful drain).

        Frames already in the rx rings stay there for :meth:`drain`;
        new offers are rejected and counted, never silently dropped.
        """
        self.quiesced = True

    def drain(self) -> None:
        """Poll all workers until every rx ring is empty."""
        supervisor = self.supervisor
        restarts_seen = supervisor.total_restarts if supervisor else 0
        while self.nic.pending():
            self.counters.scheduling_rounds += 1
            if sum(poll() for poll in self._polls) == 0:
                if supervisor is not None and (
                    supervisor.total_restarts > restarts_seen
                ):
                    # The round did no work because a worker crashed
                    # and was restarted; its ring is intact — poll on.
                    restarts_seen = supervisor.total_restarts
                    continue
                # Rings non-empty but no worker made progress: a bug,
                # not a condition to spin on.
                raise RuntimeError("pipeline stalled with packets pending")

    def run_packets(
        self, packets: Iterable[Packet], shutdown_flag=None
    ) -> PipelineStats:
        """Run a packet stream through a bare pipeline to completion.

        The fast-path entry for a pipeline that belongs to no
        :class:`~repro.stack.RuruStack`; an assembled stack is driven
        by :meth:`RuruStack.run`, which also advances the tiers behind
        the sink.

        Args:
            packets: the frame stream to feed.
            shutdown_flag: optional zero-arg callable polled between
                feed batches; when it turns truthy, the stream is
                abandoned and the rings drain to empty — the
                SIGINT/SIGTERM path of the long-running CLI commands.
        """
        drive(
            self._feed_and_drain, packets, size=self.feed_batch, stop=shutdown_flag
        )
        # Rings may still hold frames from a direct `offer`.
        self.drain()
        return self.stats

    def _feed_and_drain(self, batch: List[Packet]) -> None:
        """Offer one feed batch and drain the rings."""
        self.offer_burst(batch)
        self.drain()

    # -- reporting -----------------------------------------------------------

    @property
    def stats(self) -> PipelineStats:
        """Whole-pipeline totals: :attr:`counters` with the workers'
        counters folded in, as a fresh copy — the same under
        :meth:`run_packets`, a stack's graph walk, or bare
        :meth:`offer` / :meth:`drain` calls."""
        stats = PipelineStats()
        stats.load_state(self.counters.state_dict())
        # The worker terms are recomputed, never accumulated: a restored
        # checkpoint leaves its own folded copies in `counters`.
        stats.tracker = TrackerStats()
        for worker in self.workers:
            stats.tracker.merge(worker.stats)
        stats.packets_processed = sum(w.packets_processed for w in self.workers)
        stats.packets_sampled_out = sum(w.packets_sampled_out for w in self.workers)
        stats.queue_share = self.nic.queue_balance()
        return stats

    def stats_snapshot(self) -> PipelineStats:
        """:attr:`stats` (the name the end-to-end benchmark reads)."""
        return self.stats

    def flow_table_occupancy(self) -> List[int]:
        """In-flight handshake count per queue (flood diagnostics)."""
        return [len(worker.tracker.table) for worker in self.workers]

    # -- durability ----------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the fast path: virtual clock, whole-pipeline stats,
        NIC port counters, and every worker's flow table.

        Taken between feed batches the rx rings are empty, so this is a
        consistent cut of the measurement state; frames in flight at a
        ``kill -9`` are the bounded loss recovery reports explicitly.

        Snapshotting is side-effect free: worker counters are folded
        into a stats *copy* (:attr:`stats`), never into :attr:`counters`.
        """
        nic = self.nic.stats
        return {
            "clock_ns": self.clock.now_ns,
            "quiesced": self.quiesced,
            "stats": self.stats.state_dict(),
            "nic_stats": {
                "ipackets": nic.ipackets,
                "ibytes": nic.ibytes,
                "imissed": nic.imissed,
                "ierrors": nic.ierrors,
                "q_ipackets": dict(nic.q_ipackets),
            },
            "workers": [worker.state_dict() for worker in self.workers],
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this pipeline.

        The pipeline must be built with the same queue count; handshakes
        that were in flight at checkpoint time resume exactly where they
        were, so a SYN seen before the crash still yields a measurement
        when its ACK arrives after recovery.
        """
        workers_state = state["workers"]
        if len(workers_state) != len(self.workers):
            raise ValueError(
                f"checkpoint has {len(workers_state)} workers, "
                f"pipeline has {len(self.workers)}"
            )
        self.clock.advance_to(int(state["clock_ns"]))
        self.quiesced = bool(state["quiesced"])
        self.counters.load_state(state["stats"])
        nic_state = state["nic_stats"]
        nic = self.nic.stats
        nic.ipackets = int(nic_state["ipackets"])
        nic.ibytes = int(nic_state["ibytes"])
        nic.imissed = int(nic_state["imissed"])
        nic.ierrors = int(nic_state["ierrors"])
        nic.q_ipackets = dict(nic_state["q_ipackets"])
        for worker, worker_state in zip(self.workers, workers_state):
            worker.load_state(worker_state)

    def queue_balance(self) -> List[float]:
        """Fraction of frames RSS sent to each queue, in queue order."""
        return self.nic.queue_balance()
