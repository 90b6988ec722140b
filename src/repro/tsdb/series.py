"""Columnar per-series storage.

One :class:`Series` holds every point of one (measurement, tagset):
a sorted timestamp column plus one value column per field. Range
queries bisect the timestamp column, so a window slice is O(log n +
window) regardless of series length.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.tsdb.point import FieldValue, Point


class Series:
    """Time-ordered samples of one tagset."""

    __slots__ = ("measurement", "key", "tags", "_timestamps", "_columns")

    def __init__(self, measurement: str, tags: Tuple[Tuple[str, str], ...]):
        self.measurement = measurement
        self.key = (measurement, tags)
        self.tags = dict(tags)
        self._timestamps: List[int] = []
        self._columns: Dict[str, List[Optional[FieldValue]]] = {}

    def __len__(self) -> int:
        return len(self._timestamps)

    @property
    def fields(self) -> List[str]:
        """Field names this series has seen."""
        return list(self._columns)

    def append(self, point: Point) -> None:
        """Add a point; out-of-order timestamps are insert-sorted.

        Fields absent from a given point are padded with None so all
        columns stay aligned with the timestamp column.
        """
        fields = point.fields
        columns = self._columns
        timestamps = self._timestamps
        # The usual row: this series' fields, in time order — one append
        # per column, no walk for new fields.
        if fields.keys() == columns.keys() and (
            not timestamps or point.timestamp_ns >= timestamps[-1]
        ):
            timestamps.append(point.timestamp_ns)
            for key, column in columns.items():
                column.append(fields[key])
            return
        if not columns:  # a new series: its columns are this row's fields
            timestamps.append(point.timestamp_ns)
            self._columns = {key: [value] for key, value in fields.items()}
            return
        self._insert(point)

    def _insert(self, point: Point) -> None:
        """:meth:`append` for any point: new or missing fields, any time."""
        for key in point.fields:
            if key not in self._columns:
                # Backfill a new field for all existing rows.
                self._columns[key] = [None] * len(self._timestamps)

        if not self._timestamps or point.timestamp_ns >= self._timestamps[-1]:
            self._timestamps.append(point.timestamp_ns)
            for key, column in self._columns.items():
                column.append(point.fields.get(key))
            return

        index = bisect.bisect_right(self._timestamps, point.timestamp_ns)
        self._timestamps.insert(index, point.timestamp_ns)
        for key, column in self._columns.items():
            column.insert(index, point.fields.get(key))

    def window(
        self, start_ns: Optional[int], end_ns: Optional[int]
    ) -> Tuple[int, int]:
        """Index range [lo, hi) of samples with start ≤ t < end."""
        lo = 0 if start_ns is None else bisect.bisect_left(self._timestamps, start_ns)
        hi = (
            len(self._timestamps)
            if end_ns is None
            else bisect.bisect_left(self._timestamps, end_ns)
        )
        return lo, hi

    def values(
        self,
        field: str,
        start_ns: Optional[int] = None,
        end_ns: Optional[int] = None,
    ) -> List[Tuple[int, FieldValue]]:
        """(timestamp, value) pairs of *field* within the window,
        skipping rows where the field is absent.
        """
        column = self._columns.get(field)
        if column is None:
            return []
        lo, hi = self.window(start_ns, end_ns)
        return [
            (self._timestamps[i], column[i])
            for i in range(lo, hi)
            if column[i] is not None
        ]

    def truncate_before(self, cutoff_ns: int) -> int:
        """Drop samples older than *cutoff_ns*; returns how many."""
        index = bisect.bisect_left(self._timestamps, cutoff_ns)
        if not index:
            return 0
        del self._timestamps[:index]
        for column in self._columns.values():
            del column[:index]
        return index

    @property
    def first_timestamp(self) -> Optional[int]:
        return self._timestamps[0] if self._timestamps else None

    @property
    def last_timestamp(self) -> Optional[int]:
        return self._timestamps[-1] if self._timestamps else None
