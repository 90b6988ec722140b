"""Per-port statistics, mirroring ``rte_eth_stats``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class PortStats:
    """Counters a real NIC exposes; the benches report these.

    Attributes:
        ipackets: frames successfully received into mbufs.
        ibytes: bytes successfully received.
        imissed: frames dropped for lack of mbufs or ring space.
        ierrors: malformed frames rejected at classification.
        q_ipackets: per-queue receive counters.
    """

    ipackets: int = 0
    ibytes: int = 0
    imissed: int = 0
    ierrors: int = 0
    q_ipackets: Dict[int, int] = field(default_factory=dict)

    def record_rx_burst(self, queued: Dict[int, int], nbytes: int) -> int:
        """Account one burst's queued frames — per-queue counts, in the
        order the queues were first hit — and return how many."""
        total = 0
        for queue_id, count in queued.items():
            total += count
            self.q_ipackets[queue_id] = self.q_ipackets.get(queue_id, 0) + count
        self.ipackets += total
        self.ibytes += nbytes
        return total

    def record_miss(self, count: int = 1) -> None:
        """Account frames dropped before reaching a queue."""
        self.imissed += count

    def queue_balance(self, num_queues: int) -> List[float]:
        """Fraction of received packets per queue (ordered by queue id).

        The RSS-scaling bench uses this to show RSS spreads load
        evenly across queues. One share per configured queue, zeros
        included, so a share's position is its queue id.
        """
        if not self.ipackets:
            return []
        return [self.q_ipackets.get(q, 0) / self.ipackets for q in range(num_queues)]

    def reset(self) -> None:
        """Zero all counters (``rte_eth_stats_reset``)."""
        self.ipackets = 0
        self.ibytes = 0
        self.imissed = 0
        self.ierrors = 0
        self.q_ipackets.clear()
