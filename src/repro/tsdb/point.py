"""The TSDB's unit of ingest: a measurement point.

Matches Influx's data model: a measurement name, indexed string tags,
unindexed numeric fields, and a nanosecond timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple, Union

FieldValue = Union[int, float]


@dataclass(frozen=True)
class Point:
    """One sample.

    Attributes:
        measurement: series family, e.g. ``"latency"``.
        tags: indexed dimensions, e.g. ``{"src_country": "NZ"}``.
        fields: the sampled values, e.g. ``{"total_ms": 148.2}``.
        timestamp_ns: sample time in nanoseconds.
    """

    measurement: str
    timestamp_ns: int
    tags: Dict[str, str] = field(default_factory=dict)
    fields: Dict[str, FieldValue] = field(default_factory=dict)

    def __post_init__(self):
        if not self.measurement:
            raise ValueError("measurement name cannot be empty")
        if not self.fields:
            raise ValueError("a point needs at least one field")
        for key, value in self.fields.items():
            kind = type(value)  # plain floats and ints, the usual case, skip the walk
            if kind is not float and kind is not int and (
                not isinstance(value, (int, float)) or isinstance(value, bool)
            ):
                raise TypeError(f"field {key!r} must be numeric, got {type(value).__name__}")
        # Fixed here, once: the store's index and the line protocol both
        # read this key, never the tags dict, so a dict mutated after
        # construction cannot file a point under one series and log it
        # under another.
        object.__setattr__(
            self, "_series_key", (self.measurement, tuple(sorted(self.tags.items())))
        )

    def series_key(self) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
        """The (measurement, sorted-tagset) identity of this point's
        series, as of construction."""
        return self._series_key
