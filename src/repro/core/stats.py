"""Counters for the tracker and the whole pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class TrackerStats:
    """Per-worker handshake tracking counters.

    Attributes:
        packets: TCP packets examined.
        syn / synack / ack_completed: handshake packets consumed.
        measurements: latency records emitted.
        syn_retransmits: SYNs for an already-tracked flow (first
            timestamp kept, per the paper's "first SYN").
        synack_retransmits: duplicate SYN-ACKs.
        orphan_synack: SYN-ACK with no tracked SYN (flow began before
            the tap started, or the SYN was dropped upstream).
        stray_ack: ACK matching no tracked handshake (the overwhelmingly
            common case — every data segment of an established flow).
        seq_mismatch: segments rejected by strict sequence validation.
        resets: handshakes aborted by RST.
        invalid_latency: measurements over the sanity cap, discarded.
    """

    packets: int = 0
    syn: int = 0
    synack: int = 0
    ack_completed: int = 0
    measurements: int = 0
    syn_retransmits: int = 0
    synack_retransmits: int = 0
    orphan_synack: int = 0
    stray_ack: int = 0
    seq_mismatch: int = 0
    resets: int = 0
    invalid_latency: int = 0

    def merge(self, other: "TrackerStats") -> None:
        """Accumulate *other* into self (for whole-pipeline totals)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def state_dict(self) -> Dict[str, int]:
        """Snapshot every counter (all fields are plain ints)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def load_state(self, state: Dict[str, int]) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        for name in self.__dataclass_fields__:
            setattr(self, name, int(state[name]))


@dataclass
class PipelineStats:
    """Whole-pipeline counters aggregated by :class:`RuruPipeline`.

    ``packets_processed`` / ``packets_sampled_out`` are the per-worker
    totals (frames drained off rings, and frames skipped by flow
    sampling before the tracker) merged up by the pipeline;
    ``queue_share`` is the NIC's per-queue receive fraction — both so
    the summary explains *where* offered packets went, not just how
    many arrived.
    """

    packets_offered: int = 0
    packets_queued: int = 0
    packets_processed: int = 0
    packets_sampled_out: int = 0
    packets_rejected_quiesced: int = 0
    packets_shed: int = 0
    nic_drops: int = 0
    parse_errors: int = 0
    parse_error_reasons: Dict[str, int] = field(default_factory=dict)
    tracker: TrackerStats = field(default_factory=TrackerStats)
    scheduling_rounds: int = 0
    queue_share: List[float] = field(default_factory=list)

    def record_parse_error(self, reason: str) -> None:
        """Count one drop at the parse stage, bucketed by reason."""
        self.parse_errors += 1
        self.parse_error_reasons[reason] = self.parse_error_reasons.get(reason, 0) + 1

    @property
    def measurements(self) -> int:
        """Latency records emitted across all workers."""
        return self.tracker.measurements

    def summary(self, slo_results=None) -> Dict[str, float]:
        """Flat dict for printing in benches and the CLI.

        Parse-error reasons appear as ``parse_error.<reason>`` keys and
        RSS balance as ``queue_share.q<n>`` keys, so a drop at any
        stage is attributable straight from the printout. When a list
        of evaluated :class:`~repro.obs.slo.SloResult` is passed, each
        objective lands as a ``slo.<name>`` verdict row.
        """
        summary: Dict[str, float] = {
            "packets_offered": self.packets_offered,
            "packets_queued": self.packets_queued,
            "packets_processed": self.packets_processed,
            "packets_sampled_out": self.packets_sampled_out,
            "packets_rejected_quiesced": self.packets_rejected_quiesced,
            "packets_shed": self.packets_shed,
            "nic_drops": self.nic_drops,
            "parse_errors": self.parse_errors,
            "measurements": self.tracker.measurements,
            "syn": self.tracker.syn,
            "synack": self.tracker.synack,
            "stray_ack": self.tracker.stray_ack,
            "resets": self.tracker.resets,
            "scheduling_rounds": self.scheduling_rounds,
        }
        for reason in sorted(self.parse_error_reasons):
            summary[f"parse_error.{reason}"] = self.parse_error_reasons[reason]
        for queue_id, share in enumerate(self.queue_share):
            summary[f"queue_share.q{queue_id}"] = round(share, 4)
        if slo_results:
            # Imported lazily: repro.obs.slo is optional surface, the
            # core stats module stays dependency-light.
            from repro.obs.slo import summarize_slos

            summary.update(summarize_slos(slo_results))
        return summary

    def state_dict(self) -> Dict:
        """Snapshot the whole-pipeline counters for a checkpoint."""
        return {
            "packets_offered": self.packets_offered,
            "packets_queued": self.packets_queued,
            "packets_processed": self.packets_processed,
            "packets_sampled_out": self.packets_sampled_out,
            "packets_rejected_quiesced": self.packets_rejected_quiesced,
            "packets_shed": self.packets_shed,
            "nic_drops": self.nic_drops,
            "parse_errors": self.parse_errors,
            "parse_error_reasons": dict(self.parse_error_reasons),
            "tracker": self.tracker.state_dict(),
            "scheduling_rounds": self.scheduling_rounds,
            "queue_share": list(self.queue_share),
        }

    def load_state(self, state: Dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self.packets_offered = int(state["packets_offered"])
        self.packets_queued = int(state["packets_queued"])
        self.packets_processed = int(state["packets_processed"])
        self.packets_sampled_out = int(state["packets_sampled_out"])
        self.packets_rejected_quiesced = int(state["packets_rejected_quiesced"])
        self.packets_shed = int(state["packets_shed"])
        self.nic_drops = int(state["nic_drops"])
        self.parse_errors = int(state["parse_errors"])
        self.parse_error_reasons = dict(state["parse_error_reasons"])
        self.tracker.load_state(state["tracker"])
        self.scheduling_rounds = int(state["scheduling_rounds"])
        self.queue_share = list(state["queue_share"])
