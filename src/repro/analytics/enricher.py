"""Geo/AS enrichment: latency records in, anonymized measurements out.

The output type, :class:`EnrichedMeasurement`, has *no address
fields*: once a record crosses the enricher, the IPs are gone. This
implements the paper's privacy step structurally rather than by
convention — nothing downstream can leak what it never receives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.latency import LatencyRecord
from repro.geo.asn import AsnDatabase
from repro.geo.database import GeoDatabase

UNKNOWN_COUNTRY = "ZZ"
UNKNOWN_CITY = "Unknown"
UNKNOWN_ASN = 0


@dataclass(frozen=True)
class EnrichedMeasurement:
    """A geo-enriched, anonymized latency measurement.

    This is what reaches InfluxDB and the frontend: latencies plus
    geography and AS numbers — never addresses.
    """

    timestamp_ns: int
    internal_ns: int
    external_ns: int
    src_country: str
    src_city: str
    src_lat: float
    src_lon: float
    src_asn: int
    dst_country: str
    dst_city: str
    dst_lat: float
    dst_lon: float
    dst_asn: int
    # True when the record crossed an open enrichment breaker: the
    # latencies are real, the geography is unknown-by-policy. Dashboards
    # can exclude or shade these; dropping them would hide the outage.
    degraded: bool = False

    def __init__(
        self, timestamp_ns, internal_ns, external_ns, src_country, src_city,
        src_lat, src_lon, src_asn, dst_country, dst_city, dst_lat, dst_lon,
        dst_asn, degraded=False,
    ):
        # As LatencyRecord: one per enrich and one per frontend decode,
        # so the instance dict is filled directly (still frozen;
        # tests/analytics/test_enricher.py holds the signature).
        own = self.__dict__
        own["timestamp_ns"] = timestamp_ns
        own["internal_ns"] = internal_ns
        own["external_ns"] = external_ns
        own["src_country"] = src_country
        own["src_city"] = src_city
        own["src_lat"] = src_lat
        own["src_lon"] = src_lon
        own["src_asn"] = src_asn
        own["dst_country"] = dst_country
        own["dst_city"] = dst_city
        own["dst_lat"] = dst_lat
        own["dst_lon"] = dst_lon
        own["dst_asn"] = dst_asn
        own["degraded"] = degraded

    @property
    def total_ns(self) -> int:
        return self.internal_ns + self.external_ns

    @property
    def internal_ms(self) -> float:
        return self.internal_ns / 1e6

    @property
    def external_ms(self) -> float:
        return self.external_ns / 1e6

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def location_pair(self):
        """(src city, dst city) — the aggregation key for locations."""
        return (self.src_city, self.dst_city)

    @property
    def asn_pair(self):
        """(src ASN, dst ASN) — the aggregation key for networks."""
        return (self.src_asn, self.dst_asn)


def degraded_measurement(record: LatencyRecord) -> EnrichedMeasurement:
    """An un-enriched measurement for an open enrichment breaker.

    The latency components survive (they were measured upstream of the
    failing dependency); geography and AS numbers are unknown-by-policy
    and the ``degraded`` flag marks the episode. The addresses are
    still stripped — the privacy boundary holds even in degraded mode.
    """
    return EnrichedMeasurement(
        timestamp_ns=record.timestamp_ns,
        internal_ns=record.internal_ns,
        external_ns=record.external_ns,
        src_country=UNKNOWN_COUNTRY,
        src_city=UNKNOWN_CITY,
        src_lat=0.0,
        src_lon=0.0,
        src_asn=UNKNOWN_ASN,
        dst_country=UNKNOWN_COUNTRY,
        dst_city=UNKNOWN_CITY,
        dst_lat=0.0,
        dst_lon=0.0,
        dst_asn=UNKNOWN_ASN,
        degraded=True,
    )


@dataclass
class EnricherStats:
    """Enrichment counters."""

    enriched: int = 0
    geo_misses: int = 0
    asn_misses: int = 0
    dropped_unresolved: int = 0


class Enricher:
    """Looks up both endpoints of a record and strips its addresses.

    Args:
        geo: range-based geo database (IPv4).
        asn: prefix-based AS database (IPv4).
        geo6 / asn6: optional IPv6 databases; without them IPv6
            records enrich as unknown (the pre-dual-stack deployment).
        drop_unresolved: when True, records with *no* resolvable
            endpoint geography are dropped; when False (default) the
            unknown side is tagged ``ZZ``/``Unknown`` so volume is
            preserved — the choice a real deployment faces with
            unallocated space.
    """

    def __init__(
        self,
        geo: GeoDatabase,
        asn: AsnDatabase,
        geo6: Optional[GeoDatabase] = None,
        asn6: Optional[AsnDatabase] = None,
        drop_unresolved: bool = False,
    ):
        self.geo = geo
        self.asn = asn
        self.geo6 = geo6
        self.asn6 = asn6
        self.drop_unresolved = drop_unresolved
        self.stats = EnricherStats()

    def _geo_lookup(self, address: int, is_ipv6: bool):
        if is_ipv6:
            return self.geo6.lookup(address) if self.geo6 else None
        return self.geo.lookup(address)

    def _asn_lookup(self, address: int, is_ipv6: bool):
        if is_ipv6:
            return self.asn6.lookup(address) if self.asn6 else None
        return self.asn.lookup(address)

    def enrich(self, record: LatencyRecord) -> Optional[EnrichedMeasurement]:
        """Enrich one record; None if dropped by the unresolved policy."""
        src_geo = self._geo_lookup(record.src_ip, record.is_ipv6)
        dst_geo = self._geo_lookup(record.dst_ip, record.is_ipv6)
        if src_geo is None:
            self.stats.geo_misses += 1
        if dst_geo is None:
            self.stats.geo_misses += 1
        if self.drop_unresolved and src_geo is None and dst_geo is None:
            self.stats.dropped_unresolved += 1
            return None

        src_as = self._asn_lookup(record.src_ip, record.is_ipv6)
        dst_as = self._asn_lookup(record.dst_ip, record.is_ipv6)
        if src_as is None:
            self.stats.asn_misses += 1
        if dst_as is None:
            self.stats.asn_misses += 1

        self.stats.enriched += 1
        return EnrichedMeasurement(
            timestamp_ns=record.timestamp_ns,
            internal_ns=record.internal_ns,
            external_ns=record.external_ns,
            src_country=src_geo.country_code if src_geo else UNKNOWN_COUNTRY,
            src_city=src_geo.city if src_geo else UNKNOWN_CITY,
            src_lat=src_geo.lat if src_geo else 0.0,
            src_lon=src_geo.lon if src_geo else 0.0,
            src_asn=src_as.asn if src_as else UNKNOWN_ASN,
            dst_country=dst_geo.country_code if dst_geo else UNKNOWN_COUNTRY,
            dst_city=dst_geo.city if dst_geo else UNKNOWN_CITY,
            dst_lat=dst_geo.lat if dst_geo else 0.0,
            dst_lon=dst_geo.lon if dst_geo else 0.0,
            dst_asn=dst_as.asn if dst_as else UNKNOWN_ASN,
        )
