"""The series map plus the inverted tag index.

The paper relies on "InfluxDB tak[ing] care of indexing data on
geo-location and AS information"; this is that index: for every
measurement, ``tag key → tag value → set of series``, so a dashboard
filter like ``src_country = 'NZ'`` touches only matching series.
"""

from __future__ import annotations

from collections import defaultdict
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Set

from repro.tsdb.point import Point, SeriesKey
from repro.tsdb.series import Series

_by_key = attrgetter("key")


class SeriesStorage:
    """All series of one database, with tag-index lookups."""

    def __init__(self):
        self._series: Dict[SeriesKey, Series] = {}
        # measurement -> tag key -> tag value -> series (hashed by identity,
        # so indexing a series hashes its key once, not once per tag)
        self._tag_index: Dict[str, Dict[str, Dict[str, Set[Series]]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(set)))
        self._by_measurement: Dict[str, Set[Series]] = defaultdict(set)

    def write(self, point: Point) -> None:
        """Route a point to its series, creating and indexing it if new."""
        self.write_batch((point,))

    def write_batch(self, points: Iterable[Point]) -> int:
        """:meth:`write` for each point, in order; returns the count."""
        lookup = self._series.get
        count = 0
        for point in points:
            key = point.series_key()
            series = lookup(key)
            if series is None:
                series = self._add_series(key)
            series.append(point)
            count += 1
        return count

    def _add_series(self, key: SeriesKey) -> Series:
        measurement, tags = key
        series = self._series[key] = Series(measurement, tags)
        self._by_measurement[measurement].add(series)
        index = self._tag_index[measurement]
        for tag_key, tag_value in tags:
            index[tag_key][tag_value].add(series)
        return series

    def measurements(self) -> List[str]:
        """All measurement names, sorted."""
        return sorted(self._by_measurement)

    def series_for(self, measurement: str, ordered: bool = True) -> List[Series]:
        """Every series of a measurement, by key unless order is moot."""
        found = self._by_measurement.get(measurement, ())
        return sorted(found, key=_by_key) if ordered else list(found)

    def tag_values(self, measurement: str, tag_key: str) -> List[str]:
        """Distinct values of *tag_key* (``SHOW TAG VALUES``)."""
        index = self._tag_index.get(measurement, {})
        return sorted(index.get(tag_key, {}))

    def select_series(
        self, measurement: str, tag_filters: Optional[Dict[str, List[str]]] = None
    ) -> List[Series]:
        """Series matching every filter (each filter: key ∈ values).

        Uses the inverted index: intersect the per-(key, value) series
        sets rather than scanning all series.
        """
        candidate = self._by_measurement.get(measurement)
        if not candidate:
            return []
        index = self._tag_index[measurement]
        for tag_key, wanted_values in (tag_filters or {}).items():
            by_value = index.get(tag_key, {})
            matching: Set[Series] = set()
            for value in wanted_values:
                matching |= by_value.get(value, set())
            candidate = candidate & matching
            if not candidate:
                return []
        return sorted(candidate, key=_by_key)

    def total_points(self) -> int:
        """Points across all series currently retained."""
        return sum(len(series) for series in self._series.values())

    def series_count(self) -> int:
        return len(self._series)

    def drop_empty(self) -> int:
        """Remove series emptied by retention, and every index entry
        (tag value, tag key, measurement) left with no series; returns
        how many series."""
        empty = [key for key, series in self._series.items() if not len(series)]
        for key in empty:
            measurement, tags = key
            series = self._series.pop(key)
            index = self._tag_index[measurement]
            for tag_key, tag_value in tags:
                by_value = index[tag_key]
                by_value[tag_value].discard(series)
                if not by_value[tag_value]:
                    del by_value[tag_value]
                if not by_value:
                    del index[tag_key]
            found = self._by_measurement[measurement]
            found.discard(series)
            if not found:
                del self._by_measurement[measurement], self._tag_index[measurement]
        return len(empty)
