"""Retention policy and downsampler tests."""

import pytest

from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.point import Point
from repro.tsdb.ql import execute_statement
from repro.tsdb.retention import Downsampler, RetentionPolicy
from repro.tsdb.storage import SeriesStorage

S = 1_000_000_000


def _filled_storage():
    storage = SeriesStorage()
    for i in range(10):
        storage.write(Point("latency", i * S, tags={"c": "NZ"},
                            fields={"total_ms": float(i)}))
        storage.write(Point("other", i * S, fields={"v": float(i)}))
    return storage


class TestRetentionPolicy:
    def test_drops_old_points(self):
        storage = _filled_storage()
        policy = RetentionPolicy(duration_ns=4 * S, measurement="latency")
        dropped = policy.enforce(storage, now_ns=10 * S)
        assert dropped == 6  # t=0..5 are older than now-4s
        remaining = storage.series_for("latency")[0]
        assert remaining.first_timestamp == 6 * S

    def test_scoped_to_measurement(self):
        storage = _filled_storage()
        RetentionPolicy(duration_ns=S, measurement="latency").enforce(storage, 100 * S)
        assert len(storage.series_for("other")[0]) == 10

    def test_global_policy(self):
        storage = _filled_storage()
        RetentionPolicy(duration_ns=S).enforce(storage, 100 * S)
        assert storage.total_points() == 0

    def test_emptied_series_dropped(self):
        storage = _filled_storage()
        RetentionPolicy(duration_ns=S).enforce(storage, 100 * S)
        assert storage.series_count() == 0

    def test_emptied_store_leaves_no_index_entries(self):
        """Neither the measurement, its tag key nor its tag value
        outlives the last series that carried it."""
        db = TimeSeriesDatabase()
        db.storage = _filled_storage()
        db.write(Point("latency", 50 * S, tags={"c": "AU"}, fields={"total_ms": 1.0}))
        db.add_retention_policy(RetentionPolicy(duration_ns=S))
        db.enforce_retention(20 * S)
        assert db.measurements() == ["latency"]
        assert db.tag_values("latency", "c") == ["AU"]
        db.enforce_retention(100 * S)
        assert db.total_points() == 0
        assert db.measurements() == execute_statement(db, "SHOW MEASUREMENTS") == []
        assert db.tag_values("latency", "c") == []
        assert execute_statement(db, "SHOW TAG VALUES FROM latency WITH KEY = c") == []
        assert db.cardinality() == {}
        # ... and a series written afterwards is indexed from scratch.
        db.write(Point("latency", 200 * S, tags={"c": "NZ"}, fields={"total_ms": 2.0}))
        assert db.tag_values("latency", "c") == ["NZ"]
        assert db.cardinality() == {"latency": 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            RetentionPolicy(duration_ns=0)


class TestDownsampler:
    def test_rollup_preserves_tags(self):
        storage = _filled_storage()
        downsampler = Downsampler(
            source="latency", target="latency_5s", field="total_ms",
            aggregator="mean", interval_ns=5 * S,
        )
        written = downsampler.run(storage, 0, 10 * S)
        assert len(written) == 2
        assert written[0].tags == {"c": "NZ"}
        assert written[0].fields["total_ms"] == pytest.approx(2.0)  # mean 0..4
        assert written[1].fields["total_ms"] == pytest.approx(7.0)  # mean 5..9
        assert "latency_5s" in storage.measurements()

    def test_rollup_respects_range(self):
        storage = _filled_storage()
        downsampler = Downsampler(
            source="latency", target="rollup", field="total_ms",
            aggregator="count", interval_ns=5 * S,
        )
        written = downsampler.run(storage, 0, 5 * S)
        assert len(written) == 1
        assert written[0].fields["total_ms"] == 5.0

    def test_empty_source_writes_nothing(self):
        downsampler = Downsampler(source="none", target="t", field="v")
        assert downsampler.run(SeriesStorage(), 0, S) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            Downsampler(source="a", target="a", field="v")
        with pytest.raises(ValueError):
            Downsampler(source="a", target="b", field="v", interval_ns=0)
        with pytest.raises(KeyError):
            Downsampler(source="a", target="b", field="v", aggregator="bogus")
