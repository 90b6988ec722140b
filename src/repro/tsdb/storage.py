"""The series map plus the inverted tag index.

The paper relies on "InfluxDB tak[ing] care of indexing data on
geo-location and AS information"; this is that index: for every
measurement, ``tag key → tag value → set of series``, so a dashboard
filter like ``src_country = 'NZ'`` touches only matching series.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.tsdb.point import Point
from repro.tsdb.series import Series

SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class SeriesStorage:
    """All series of one database, with tag-index lookups."""

    def __init__(self):
        self._series: Dict[SeriesKey, Series] = {}
        # measurement -> tag key -> tag value -> series keys
        self._tag_index: Dict[str, Dict[str, Dict[str, Set[SeriesKey]]]] = {}
        self._by_measurement: Dict[str, Set[SeriesKey]] = {}
        self.points_written = 0

    def write(self, point: Point) -> Series:
        """Route a point to its series, creating and indexing it if new."""
        key = point.series_key()
        series = self._series.get(key)
        if series is None:
            series = Series(point.measurement, key[1])
            self._series[key] = series
            self._by_measurement.setdefault(point.measurement, set()).add(key)
            index = self._tag_index.setdefault(point.measurement, {})
            for tag_key, tag_value in key[1]:
                index.setdefault(tag_key, {}).setdefault(tag_value, set()).add(key)
        series.append(point)
        self.points_written += 1
        return series

    def measurements(self) -> List[str]:
        """All measurement names, sorted."""
        return sorted(self._by_measurement)

    def series_for(self, measurement: str, ordered: bool = True) -> List[Series]:
        """Every series of a measurement, by key unless order is moot."""
        keys = self._by_measurement.get(measurement, set())
        return [self._series[key] for key in (sorted(keys) if ordered else keys)]

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
        all_keys = self._by_measurement.get(measurement)
        if not all_keys:
            return []
        if not tag_filters:
            return [self._series[key] for key in sorted(all_keys)]

        index = self._tag_index.get(measurement, {})
        candidate: Optional[Set[SeriesKey]] = None
        for tag_key, wanted_values in tag_filters.items():
            by_value = index.get(tag_key, {})
            matching: Set[SeriesKey] = set()
            for value in wanted_values:
                matching |= by_value.get(value, set())
            candidate = matching if candidate is None else candidate & matching
            if not candidate:
                return []
        assert candidate is not None
        return [self._series[key] for key in sorted(candidate)]

    def total_points(self) -> int:
        """Points across all series currently retained."""
        return sum(len(series) for series in self._series.values())

    def series_count(self) -> int:
        return len(self._series)

    def drop_empty(self) -> int:
        """Remove series emptied by retention; returns how many."""
        empty = [key for key, series in self._series.items() if not len(series)]
        for key in empty:
            measurement = key[0]
            del self._series[key]
            self._by_measurement[measurement].discard(key)
            index = self._tag_index.get(measurement, {})
            for tag_key, tag_value in key[1]:
                index.get(tag_key, {}).get(tag_value, set()).discard(key)
        return len(empty)
