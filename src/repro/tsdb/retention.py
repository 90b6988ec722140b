"""Retention policies and downsampling (continuous queries).

Ruru keeps full-resolution measurements only so long; InfluxDB's
retention policies age raw points out while continuous queries roll
them up into coarser measurements for "long-term storage". Both are
reproduced here and exercised by the TSDB tests and the dashboard
bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.tsdb.functions import resolve
from repro.tsdb.point import Point
from repro.tsdb.storage import SeriesStorage


@dataclass
class RetentionPolicy:
    """Drop points of *measurement* older than *duration_ns*.

    A None measurement applies to every measurement in the store.
    """

    duration_ns: int
    measurement: Optional[str] = None

    def __post_init__(self):
        if self.duration_ns <= 0:
            raise ValueError("retention duration must be positive")

    def enforce(self, storage: SeriesStorage, now_ns: int) -> int:
        """Apply the policy; returns points dropped."""
        cutoff = now_ns - self.duration_ns
        measurements = (
            [self.measurement] if self.measurement else storage.measurements()
        )
        dropped = 0
        for name in measurements:
            # Unordered: sorting the keys was most of a retention tick.
            for series in storage.series_for(name, ordered=False):
                dropped += series.truncate_before(cutoff)
        storage.drop_empty()
        return dropped


@dataclass
class Downsampler:
    """Roll one measurement's field into a coarser measurement.

    Equivalent to an Influx continuous query::

        SELECT <aggregator>(<field>) INTO <target> FROM <source>
        GROUP BY time(<interval>), *

    Tags are preserved, so downsampled data stays queryable by the
    same geo/AS dimensions.
    """

    source: str
    target: str
    field: str
    aggregator: str = "mean"
    interval_ns: int = 300 * 1_000_000_000  # 5 minutes

    def __post_init__(self):
        if self.interval_ns <= 0:
            raise ValueError("downsample interval must be positive")
        if self.source == self.target:
            raise ValueError("downsampling into the source would recurse")
        resolve(self.aggregator)

    def run(
        self,
        storage: SeriesStorage,
        start_ns: int,
        end_ns: int,
    ) -> List[Point]:
        """Compute rollup points for [start, end) and write them.

        Returns the points written (for assertions in tests).
        """
        aggregator = resolve(self.aggregator)
        written: List[Point] = []
        for series in storage.series_for(self.source):
            rows = series.values(self.field, start_ns, end_ns)
            if not rows:
                continue
            buckets = {}
            for timestamp, value in rows:
                window = start_ns + ((timestamp - start_ns) // self.interval_ns) * self.interval_ns
                buckets.setdefault(window, []).append(value)
            for window in sorted(buckets):
                point = Point(
                    measurement=self.target,
                    timestamp_ns=window,
                    tags=dict(series.tags),
                    fields={self.field: aggregator(buckets[window])},
                )
                storage.write(point)
                written.append(point)
        return written
