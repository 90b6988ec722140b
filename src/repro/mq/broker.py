"""Forwarder device: SUB-in → optional filter → PUB-out.

The paper notes the ZeroMQ fabric makes Ruru extensible: "one could
add a filter module to filter measurements in the pipeline based on
some criteria (e.g., geo-location)". A :class:`Forwarder` is that
module shape — it re-publishes what it receives, optionally through a
predicate, and is the building block E10 (the filter-module bench)
measures.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.mq.frames import Message
from repro.mq.socket import PubSocket, SubSocket

MessageFilter = Callable[[Message], bool]


class Forwarder:
    """Pump messages from a SUB socket to a PUB socket.

    Args:
        sub: the upstream subscription (already subscribed/bound).
        pub: the downstream publisher (already connected).
        message_filter: keep-predicate; None forwards everything.
    """

    def __init__(
        self,
        sub: SubSocket,
        pub: PubSocket,
        message_filter: Optional[MessageFilter] = None,
        telemetry=None,
        name: str = "forwarder",
    ):
        self.sub = sub
        self.pub = pub
        self.message_filter = message_filter
        self.name = name
        self.forwarded = 0
        self.filtered = 0
        if telemetry is not None:
            self._bind_registry(telemetry.registry)

    def poll(self, max_messages: int = 100) -> int:
        """Move up to *max_messages* downstream; returns messages handled."""
        handled = 0
        for message in self.sub.recv_all(max_messages):
            handled += 1
            if self.message_filter is not None and not self.message_filter(message):
                self.filtered += 1
                continue
            self.pub.send(message)
            self.forwarded += 1
        return handled

    def _bind_registry(self, registry) -> None:
        forwarded = registry.counter(
            "ruru_mq_forwarded_total",
            help="Messages re-published by forwarder devices.",
            labels=("forwarder",),
        )
        filtered = registry.counter(
            "ruru_mq_forward_filtered_total",
            help="Messages dropped by forwarder filter predicates.",
            labels=("forwarder",),
        )

        def collect() -> None:
            forwarded.labels(self.name).value = self.forwarded
            filtered.labels(self.name).value = self.filtered

        registry.register_collector(collect)
