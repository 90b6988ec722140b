"""The TSDB's unit of ingest: a measurement point.

Matches Influx's data model: a measurement name, indexed string tags,
unindexed numeric fields, and a nanosecond timestamp.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

FieldValue = Union[int, float]
SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def series_key(measurement: str, tags: Dict[str, str]) -> SeriesKey:
    """The (measurement, sorted-tagset) identity of a series."""
    return (measurement, tuple(sorted(tags.items())))


def _check(measurement: str, fields: Dict[str, FieldValue]) -> None:
    if not measurement:
        raise ValueError("measurement name cannot be empty")
    if not fields:
        raise ValueError("a point needs at least one field")
    for value in fields.values():
        kind = type(value)  # plain floats and ints, the usual case, skip the walk
        if kind is not float and kind is not int and (
            not isinstance(value, (int, float)) or isinstance(value, bool)
        ):
            key = next(key for key, seen in fields.items() if seen is value)
            raise TypeError(f"field {key!r} must be numeric, got {kind.__name__}")


class Point:
    """One sample: a row of its series.

    Attributes:
        measurement: series family, e.g. ``"latency"``.
        tags: indexed dimensions, e.g. ``{"src_country": "NZ"}``.
        fields: the sampled values, e.g. ``{"total_ms": 148.2}``.
        timestamp_ns: sample time in nanoseconds.

    The series key is fixed at construction and ``measurement`` and
    ``tags`` are read off it, so a tags dict mutated afterwards cannot
    file a point under one series and log it under another.
    """

    __slots__ = ("_series_key", "timestamp_ns", "fields")

    def __init__(self, measurement: str, timestamp_ns: int, tags: Optional[Dict[str, str]] = None,
                 fields: Optional[Dict[str, FieldValue]] = None):
        fields = {} if fields is None else fields
        _check(measurement, fields)
        self._series_key = series_key(measurement, tags or {})
        self.timestamp_ns = timestamp_ns
        self.fields = fields

    @classmethod
    def in_series(cls, key: SeriesKey, timestamp_ns: int, fields: Dict[str, FieldValue]) -> "Point":
        """A point of the series *key*, as :func:`series_key` built it: for
        a producer that writes one series many times and keys it once."""
        _check(key[0], fields)
        point = cls.__new__(cls)
        point._series_key = key
        point.timestamp_ns = timestamp_ns
        point.fields = fields
        return point

    @property
    def measurement(self) -> str:
        return self._series_key[0]

    @property
    def tags(self) -> Dict[str, str]:
        return dict(self._series_key[1])

    def series_key(self) -> SeriesKey:
        """The (measurement, sorted-tagset) identity of this point's
        series, as of construction."""
        return self._series_key

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._series_key, self.timestamp_ns, self.fields) == (
            other._series_key, other.timestamp_ns, other.fields
        )

    __hash__ = None  # fields is a dict

    def __repr__(self) -> str:
        return f"Point({self.measurement!r}, {self.timestamp_ns}, {self.tags!r}, {self.fields!r})"
