"""SYN-flood detection from the handshake packet stream (E5).

Runs as an in-pipeline observer (see
:class:`~repro.core.worker.QueueWorker`'s ``observers``): for every
parsed packet it counts SYNs and handshake completions per target
network, in tumbling windows. A window whose SYN rate exceeds
*min_syn_rate* **and** whose completion fraction falls below
*max_completion_fraction* opens a flood event for that target;
consecutive hot windows extend it, a cold window closes it.

Targets are keyed by destination /24 (configurable), never full
addresses — the detector's own output respects the privacy rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.anomaly.baseline import WindowedRate
from repro.anomaly.events import AnomalyEvent, Severity
from repro.net.addresses import int_to_ip
from repro.net.parser import ParsedPacket

NS_PER_S = 1_000_000_000

TargetKey = Tuple[int, bool]  # truncated address, is_ipv6


class SynFloodDetector:
    """Windowed SYN-rate / completion-ratio detector."""

    def __init__(
        self,
        window_ns: int = NS_PER_S,
        min_syn_rate: float = 500.0,
        max_completion_fraction: float = 0.3,
        prefix_bits: int = 24,
    ):
        if not 0 < max_completion_fraction <= 1.0:
            raise ValueError("completion fraction must be in (0, 1]")
        if min_syn_rate <= 0:
            raise ValueError("min_syn_rate must be positive")
        if not 0 < prefix_bits <= 32:
            raise ValueError("prefix_bits must be in (0, 32]")
        self.window_ns = window_ns
        self.min_syn_rate = min_syn_rate
        self.max_completion_fraction = max_completion_fraction
        self.prefix_bits = prefix_bits
        self._syns: WindowedRate[TargetKey] = WindowedRate(window_ns)
        self._acks: WindowedRate[TargetKey] = WindowedRate(window_ns)
        self._open: Dict[TargetKey, AnomalyEvent] = {}
        self.events: List[AnomalyEvent] = []
        self.packets_seen = 0

    def on_packet(self, packet: ParsedPacket) -> None:
        """Feed one parsed TCP packet."""
        self.on_burst((packet,))

    def on_burst(self, packets: Sequence[ParsedPacket]) -> None:
        """Observer entry point: feed a burst of parsed TCP packets, in
        order.

        Both counters see every SYN and every ACK at the same timestamp,
        so they close their windows on the same packet.
        """
        self.packets_seen += len(packets)
        syns, acks, shift = self._syns, self._acks, 32 - self.prefix_bits
        for packet in packets:
            # A pure SYN, or an ACK: ACKs toward the flooded target
            # approximate handshakes the target's clients actually
            # completed; a flood of spoofed SYNs produces none.
            handshake = packet.flags & 0x12
            if handshake != 0x02 and handshake != 0x10:
                continue
            syn = handshake == 0x02
            dst = packet.dst_ip
            # The target network: the destination's /prefix_bits, or /48.
            target = (dst >> 80 << 80, True) if packet.is_ipv6 else (dst >> shift << shift, False)
            closed_acks = acks.add(target, packet.timestamp_ns, count=0 if syn else 1)
            closed_syns = syns.add(target, packet.timestamp_ns, count=1 if syn else 0)
            if closed_syns is not None:
                self._evaluate(closed_syns, closed_acks)

    def _evaluate(self, closed_syns, closed_acks) -> None:
        window_start, syn_counts = closed_syns
        ack_counts: Dict[TargetKey, int] = closed_acks[1] if closed_acks else {}
        window_s = self.window_ns / NS_PER_S
        for target, syn_count in syn_counts.items():
            rate = syn_count / window_s
            completions = ack_counts.get(target, 0)
            fraction = completions / syn_count if syn_count else 1.0
            hot = rate >= self.min_syn_rate and fraction <= self.max_completion_fraction
            open_event = self._open.get(target)
            if hot and open_event is None:
                address, is_ipv6 = target
                label = "ipv6-net" if is_ipv6 else f"{int_to_ip(address)}/{self.prefix_bits}"
                event = AnomalyEvent(
                    kind="syn-flood",
                    start_ns=window_start,
                    severity=Severity.CRITICAL,
                    description=(
                        f"{rate:.0f} SYN/s toward {label}, "
                        f"completion {fraction:.0%}"
                    ),
                    subject=label,
                    evidence={
                        "syn_rate": rate,
                        "completion_fraction": fraction,
                    },
                )
                self._open[target] = event
                self.events.append(event)
            elif hot and open_event is not None:
                open_event.evidence["syn_rate"] = max(
                    open_event.evidence.get("syn_rate", 0.0), rate
                )
            elif not hot and open_event is not None:
                open_event.close(window_start + self.window_ns)
                del self._open[target]

    def finish(self, now_ns: Optional[int] = None) -> List[AnomalyEvent]:
        """End of stream: evaluate the last window, close open events."""
        closed_acks = self._acks.flush()
        closed_syns = self._syns.flush()
        if closed_syns is not None:
            self._evaluate(closed_syns, closed_acks)
        for target, event in list(self._open.items()):
            if event.is_open and now_ns is not None:
                event.close(now_ns)
        self._open.clear()
        return list(self.events)

    # -- durability --------------------------------------------------------

    def state_dict(self) -> dict:
        """Snapshot the open SYN/ACK windows and the packet counter.

        Open flood events are excluded (same reasoning as the spike
        detector: an ongoing flood re-opens within one window).
        """
        return {
            "syns": self._syns.state_dict(),
            "acks": self._acks.state_dict(),
            "packets_seen": self.packets_seen,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._syns.load_state(state["syns"])
        self._acks.load_state(state["acks"])
        self.packets_seen = int(state["packets_seen"])
        self._open.clear()
