"""Count-conservation: every record is accounted for, exactly once.

The resilience layer's contract is not "nothing is ever lost" — faults
guarantee losses — but "every loss is counted somewhere". One equation
states it for every tier that keeps books::

    ingested == processed + dropped + deadlettered [+ shed] [+ lost_at_crash]

*ingested* is what entered (records off the message bus, frames offered
to the shard router), *processed* what was published downstream,
*dropped* covers filtered / unresolvable / decode-failures-without-a-DLQ
and *deadlettered* is payloads parked in the dead-letter queue. Two
optional sinks extend it: *shed* — deliberately discarded under
overload control — and *lost_at_crash* — in flight to a process the
instant it died. A violation means a code path ate a record without
counting it — a bug, never a fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


class InvariantViolation(AssertionError):
    """A conservation equation failed to balance."""


#: scope → (name of the source term, rendered prefix, rendered equals).
_RENDER = {
    "count": ("ingested", "", "="),
    "durability": ("observed_ingested", "", "="),
    "overload": ("ingested", "overload ledger: ", "=="),
    "shard": ("ingested", "shard ledger: ", "=="),
}


@dataclass(frozen=True)
class Ledger:
    """One snapshot of a tier's accounting.

    ``shed`` and ``lost_at_crash`` are None where the tier has no such
    sink. ``scope`` names whose books these are, which fixes how the
    ledger renders in reports: ``count`` (the analytics tier),
    ``durability`` (the same tier across a crash, the source term being
    an outside observer's ingest count), ``overload`` (the MQ gate's
    offered count against the analytics sinks plus mq-stage shed) and
    ``shard`` (the sharded runtime's frame books).
    """

    ingested: int
    processed: int
    dropped: int
    deadlettered: int
    shed: Optional[int] = None
    lost_at_crash: Optional[int] = None
    scope: str = "count"

    @classmethod
    def from_checkpoint(cls, observed_ingested: int, ledger: "Ledger") -> "Ledger":
        """Extend a recovered checkpoint's ledger with the observer's
        external ingest count: what the checkpoint never saw ingested
        is the explicit, bounded ``lost_at_crash``."""
        return cls(
            ingested=observed_ingested,
            processed=ledger.processed,
            dropped=ledger.dropped,
            deadlettered=ledger.deadlettered,
            lost_at_crash=observed_ingested - ledger.ingested,
            scope="durability",
        )

    @classmethod
    def from_books(cls, counts: dict) -> "Ledger":
        """The analytics ledger a drained run's books (``ledger.*``)
        record."""
        terms = ("ingested", "processed", "dropped", "deadlettered")
        return cls(*(counts[f"ledger.{term}"] for term in terms))

    @classmethod
    def from_parts(cls, gate_offered: int, ledger: "Ledger", shed_mq: int) -> "Ledger":
        """Combine the MQ gate's offered count, the analytics ledger and
        the controller's mq-stage shed counter."""
        return cls(
            ingested=gate_offered,
            processed=ledger.processed,
            dropped=ledger.dropped,
            deadlettered=ledger.deadlettered,
            shed=shed_mq,
            scope="overload",
        )

    def _sinks(self) -> dict:
        sinks = {
            "processed": self.processed,
            "dropped": self.dropped,
            "deadlettered": self.deadlettered,
            "shed": self.shed,
            "lost_at_crash": self.lost_at_crash,
        }
        return {name: value for name, value in sinks.items() if value is not None}

    def _equation(self, equals: str) -> str:
        sinks = " + ".join(f"{name}={value}" for name, value in self._sinks().items())
        return f"{_RENDER[self.scope][0]}={self.ingested} {equals} {sinks}"

    @property
    def balance(self) -> int:
        """``ingested`` minus every sink; 0 = conserved."""
        return self.ingested - sum(self._sinks().values())

    @property
    def ok(self) -> bool:
        """Balanced, with a non-negative crash loss (a negative one
        means the checkpoint claims records the observer never saw)."""
        return self.balance == 0 and (self.lost_at_crash or 0) >= 0

    def check(self) -> None:
        """Raise :class:`InvariantViolation` unless the ledger holds."""
        if not self.ok:
            raise InvariantViolation(
                f"{self.scope} conservation violated: "
                f"{self._equation('!=')} (balance={self.balance})"
            )

    def as_dict(self) -> dict:
        return {
            _RENDER[self.scope][0]: self.ingested,
            **self._sinks(),
            "balance": self.balance,
        }

    def __str__(self) -> str:
        _, prefix, equals = _RENDER[self.scope]
        status = "OK" if self.ok else f"VIOLATED (balance={self.balance})"
        return f"{prefix}{self._equation(equals)} [{status}]"
