"""The database facade: what the analytics tier writes to and the
dashboards (and anomaly detectors) query.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.tsdb.line_protocol import format_point, parse_lines
from repro.tsdb.point import Point
from repro.tsdb.query import Query, QueryResult, execute
from repro.tsdb.retention import Downsampler, RetentionPolicy
from repro.tsdb.storage import SeriesStorage


class TimeSeriesDatabase:
    """An in-memory Influx-style database."""

    def __init__(self, name: str = "ruru"):
        self.name = name
        self.storage = SeriesStorage()
        self.retention_policies: List[RetentionPolicy] = []
        self.downsamplers: List[Downsampler] = []

    # -- writes --------------------------------------------------------------

    def write(self, point: Point) -> None:
        """Ingest one point."""
        self.storage.write(point)

    def write_batch(self, points: Iterable[Point]) -> int:
        """Ingest many points; returns the count."""
        return self.storage.write_batch(points)

    # -- queries ---------------------------------------------------------------

    def query(self, query: Query) -> QueryResult:
        """Execute an aggregation query."""
        return execute(self.storage, query)

    def measurements(self) -> List[str]:
        return self.storage.measurements()

    def tag_values(self, measurement: str, tag_key: str) -> List[str]:
        return self.storage.tag_values(measurement, tag_key)

    def cardinality(self) -> Dict[str, int]:
        """Series counts per measurement (index-size diagnostics)."""
        return {
            name: len(self.storage.series_for(name))
            for name in self.storage.measurements()
        }

    def total_points(self) -> int:
        return self.storage.total_points()

    # -- lifecycle ---------------------------------------------------------------

    def add_retention_policy(self, policy: RetentionPolicy) -> None:
        self.retention_policies.append(policy)

    def add_downsampler(self, downsampler: Downsampler) -> None:
        self.downsamplers.append(downsampler)

    def enforce_retention(self, now_ns: int) -> int:
        """Apply all retention policies; returns points dropped."""
        return sum(policy.enforce(self.storage, now_ns) for policy in self.retention_policies)

    def run_downsamplers(self, start_ns: int, end_ns: int) -> int:
        """Run all continuous queries over [start, end); returns points written."""
        return sum(
            len(downsampler.run(self.storage, start_ns, end_ns))
            for downsampler in self.downsamplers
        )

    # -- import/export -------------------------------------------------------

    def dump_lines(self, measurement: Optional[str] = None) -> Iterable[str]:
        """Export as Influx line protocol (optionally one measurement)."""
        names = [measurement] if measurement else self.measurements()
        for name in names:
            for series in self.storage.series_for(name):
                for field_name in series.fields:
                    for timestamp, value in series.values(field_name):
                        yield format_point(
                            Point.in_series(series.key, timestamp, {field_name: value})
                        )

    def load_lines(self, lines: Iterable[str]) -> int:
        """Import line protocol; returns points written."""
        return self.write_batch(parse_lines(lines))
