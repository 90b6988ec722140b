"""A point is a row: the record half's keyed rows equal Point-by-Point.

The analytics tier builds each series key once — per endpoint identity
for the raw point, per pair for the rollups — and hands the store
``Point.in_series`` rows, which a series takes as one timestamp append
plus one append per column. The reference here builds the same points
the long way, every one through the public ``Point(measurement, ts,
tags, fields)`` constructor (the tags dict, ``str(asn)``, the direction
and the sort, per point), into a store whose every append takes the
general path. For any record stream — degraded records, IPv6, repeated
pairs, window crossings, late arrivals, any poll sizes — both leave the
same series (timestamps and columns, in order), write byte-identical
write-ahead log frames and dump the same line protocol; once more with
every memo bounded at one entry, so keys are evicted and rebuilt.
"""

import itertools
import os
import tempfile
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import aggregator as aggregator_module
from repro.analytics import service as service_module
from repro.analytics.aggregator import PairAggregator
from repro.analytics.service import LATENCY_TOPIC, AnalyticsService
from repro.core.latency import Direction, LatencyRecord
from repro.durability import wal as wal_module
from repro.durability.wal import DurableTsdb, WriteAheadLog
from repro.geo.asn import AsRecord
from repro.geo.database import GeoRecord
from repro.mq.codec import encode_latency_record
from repro.mq.frames import Message
from repro.mq.socket import Context
from repro.tsdb import database as database_module
from repro.tsdb import line_protocol
from repro.tsdb.database import TimeSeriesDatabase
from repro.tsdb.point import Point
from repro.tsdb.series import Series

NS_PER_S = 1_000_000_000
HOME = "NZ"
# Few places, so pairs repeat; separators in the names, so the memoised
# line heads are held to the escaping too. None is an unknown address.
PLACES = [
    ("NZ", "Auckland"), ("NZ", "Wel,lington"), ("US", "Los Angeles"), ("AU", "Syd=ney"), None,
]
MEMOS = [
    (service_module, "_raw_key"),
    (aggregator_module, "_location_key"),
    (aggregator_module, "_asn_key"),
    (line_protocol, "_head"),
    (line_protocol, "_field_prefixes"),
]


class _Geo:
    """Places by address; every 7th address is a failing lookup, so the
    enricher degrades (and its breaker may open)."""

    def lookup(self, address):
        if address % 7 == 3:
            raise LookupError("database reload")
        place = PLACES[address % len(PLACES)]
        return None if place is None else GeoRecord(place[0], place[0], place[1], 0.0, 0.0)


class _Asn:
    def lookup(self, address):
        asn = address % 4
        return None if asn == 3 else AsRecord(64500 + asn, "as")


RECORDS = st.lists(
    st.tuples(
        st.integers(0, 40),  # src address
        st.integers(0, 40),  # dst address
        st.booleans(),  # IPv6
        st.integers(-NS_PER_S, 2 * NS_PER_S),  # arrival after the latest; < 0 is late
        st.integers(1, 10**9),  # internal_ns
        st.integers(1, 10**9),  # external_ns
    ),
    max_size=40,
)
POLLS = st.lists(st.integers(1, 12), min_size=1, max_size=8)


def _records(rows):
    latest = 5 * NS_PER_S
    records = []
    for src, dst, ipv6, step, internal_ns, external_ns in rows:
        timestamp = max(0, latest + step)
        latest = max(latest, timestamp)
        scale = 1 << 64 if ipv6 else 1
        records.append(
            LatencyRecord(
                src * scale + src, dst * scale + dst, 40000, 443, internal_ns, external_ns,
                timestamp - internal_ns - external_ns, timestamp - internal_ns, timestamp,
                is_ipv6=ipv6,
            )
        )
    return records


def _cuts(total, polls):
    """*total* records cut into polls of the given sizes, cycled."""
    cuts, sizes = [], itertools.cycle(polls)
    while total > 0:
        cuts.append(min(next(sizes), total))
        total -= cuts[-1]
    return cuts


def _durable(directory, name):
    return DurableTsdb(TimeSeriesDatabase(), WriteAheadLog(os.path.join(directory, name)))


def _rows(records, cuts, store):
    """The analytics tier over *records*, polled in *cuts*; returns the
    measurements it stored, in order."""
    seen = []
    service = AnalyticsService(
        Context(), _Geo(), _Asn(), geo6=_Geo(), asn6=_Asn(), tsdb=store, num_workers=2,
        filters=[lambda measurement: seen.append(measurement) or True], home_country=HOME,
    )
    push = service.connect_pipeline()
    records = iter(records)
    for size in cuts:
        for _ in range(size):
            push.send(Message.with_topic(LATENCY_TOPIC, encode_latency_record(next(records))))
        service.poll(max_messages=size)
    service.finish()
    return seen


def _reference_raw_point(m):
    direction = Direction.classify(m.src_country, m.dst_country, HOME)
    return Point(
        measurement="latency",
        timestamp_ns=m.timestamp_ns,
        tags={
            "src_country": m.src_country,
            "dst_country": m.dst_country,
            "src_city": m.src_city,
            "dst_city": m.dst_city,
            "src_asn": str(m.src_asn),
            "dst_asn": str(m.dst_asn),
            "direction": direction.value,
        },
        fields={"internal_ms": m.internal_ms, "external_ms": m.external_ms, "total_ms": m.total_ms},
    )


class _ReferenceAggregator(PairAggregator):
    def _points_for(self, window):
        points = []
        for (src_city, dst_city), stats in sorted(window.by_location.items()):
            points.append(Point(
                measurement="latency_by_location", timestamp_ns=window.start_ns,
                tags={"src_city": src_city, "dst_city": dst_city}, fields=self._fields(stats),
            ))
        for (src_asn, dst_asn), stats in sorted(window.by_asn.items()):
            points.append(Point(
                measurement="latency_by_asn", timestamp_ns=window.start_ns,
                tags={"src_asn": str(src_asn), "dst_asn": str(dst_asn)},
                fields=self._fields(stats),
            ))
        return points


def _reference_line(point):
    """A point's line walked out afresh: unmemoised escapes, fields
    sorted per line."""
    escape = line_protocol._escape.__wrapped__
    head = escape(point.measurement) + "".join(
        f",{escape(key)}={escape(value)}" for key, value in sorted(point.tags.items())
    )
    fields = ",".join(
        f"{escape(key)}={value}i" if isinstance(value, int) else f"{escape(key)}={value!r}"
        for key, value in sorted(point.fields.items())
    )
    return f"{head} {fields} {point.timestamp_ns}"


def _reference(measurements, cuts, store):
    """The same write requests, Point by Point, through the general
    append path only, logged and dumped line by unmemoised line;
    returns the dump."""
    request = []
    aggregator = _ReferenceAggregator(emit=request.extend)

    def write():
        if request:
            store.write_batch(list(request))
            request.clear()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Series, "append", Series._insert)
        patch.setattr(wal_module, "format_point", _reference_line)
        patch.setattr(database_module, "format_point", _reference_line)
        taken = 0
        for size in cuts:
            for measurement in measurements[taken : taken + size]:
                request.append(_reference_raw_point(measurement))
                aggregator.add(measurement)
            taken += size
            write()
        aggregator.flush()
        write()
        return list(store.dump_lines())


def _log(wal):
    """The log's bytes (none before its first write)."""
    wal.close()
    if not os.path.exists(wal.path):
        return b""
    with open(wal.path, "rb") as handle:
        return handle.read()


def _series(store):
    return {
        key: (series._timestamps, list(series._columns.items()))
        for key, series in store.inner.storage._series.items()
    }


@pytest.mark.parametrize("bound", [None, 1], ids=["memos", "memos-of-one"])
@settings(max_examples=60, deadline=None)
@given(rows=RECORDS, polls=POLLS)
def test_rows_equal_points(bound, rows, polls):
    records = _records(rows)
    cuts = _cuts(len(records), polls)
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        if bound is not None:
            for module, name in MEMOS:
                patch.setattr(module, name, lru_cache(maxsize=bound)(getattr(module, name).__wrapped__))
        store = _durable(directory, "rows.wal")
        measurements = _rows(records, cuts, store)
        assert len(measurements) == len(records)
        twin = _durable(directory, "points.wal")
        dump = _reference(measurements, cuts, twin)
        assert _series(store) == _series(twin)
        assert store.wal_bytes == twin.wal_bytes
        assert _log(store.wal) == _log(twin.wal)
        assert list(store.dump_lines()) == dump
        assert store.cardinality() == twin.cardinality()


def test_the_stream_covers_what_it_claims():
    """The cases named above do turn up: degraded and IPv6 records,
    repeated pairs, late arrivals and more than one window."""
    rows = [(3, 5, False, 0, 10**6, 2 * 10**6), (1, 2, True, 3 * 10**8, 10**6, 10**6),
            (1, 2, True, 2 * 10**8, 10**6, 10**6), (1, 2, False, -4 * 10**8, 10**6, 10**6),
            (2, 4, False, 2 * NS_PER_S, 10**6, 10**6)]
    records = _records(rows)
    with tempfile.TemporaryDirectory() as directory:
        store = _durable(directory, "rows.wal")
        measurements = _rows(records, [2, 3], store)
    assert {m.degraded for m in measurements} == {True, False}
    assert {r.is_ipv6 for r in records} == {True, False}
    assert records[3].timestamp_ns < records[2].timestamp_ns  # late
    assert len({r.timestamp_ns // NS_PER_S for r in records}) > 1  # windows
    assert len({m.location_pair for m in measurements}) < len(measurements)  # repeats
