"""Enrichment tests."""

import random

from repro.analytics.enricher import (
    UNKNOWN_ASN,
    UNKNOWN_CITY,
    UNKNOWN_COUNTRY,
    Enricher,
)
from repro.core.latency import LatencyRecord


def _record(src_ip, dst_ip, internal=10_000_000, external=140_000_000):
    return LatencyRecord(
        src_ip=src_ip, dst_ip=dst_ip, src_port=40000, dst_port=443,
        internal_ns=internal, external_ns=external,
        syn_ns=0, synack_ns=external, ack_ns=external + internal,
    )


class TestEnricher:
    def test_resolves_both_endpoints(self, plan, geo_asn):
        geo, asn = geo_asn
        enricher = Enricher(geo, asn)
        rng = random.Random(1)
        akl = plan.city_index("Auckland")
        la = plan.city_index("Los Angeles")
        record = _record(plan.random_host(akl, rng), plan.random_host(la, rng))
        measurement = enricher.enrich(record)
        assert measurement.src_city == "Auckland"
        assert measurement.src_country == "NZ"
        assert measurement.dst_city == "Los Angeles"
        assert measurement.dst_country == "US"
        assert measurement.src_asn in (
            plan.incumbent_asn(akl), plan.carveout_asn(akl)
        )
        assert enricher.stats.enriched == 1

    def test_latencies_carried_through(self, plan, geo_asn):
        geo, asn = geo_asn
        enricher = Enricher(geo, asn)
        rng = random.Random(2)
        record = _record(
            plan.random_host(0, rng), plan.random_host(1, rng),
            internal=7_000_000, external=93_000_000,
        )
        measurement = enricher.enrich(record)
        assert measurement.internal_ns == 7_000_000
        assert measurement.external_ns == 93_000_000
        assert measurement.total_ms == 100.0
        assert measurement.timestamp_ns == record.timestamp_ns

    def test_unknown_address_tagged(self, geo_asn):
        geo, asn = geo_asn
        enricher = Enricher(geo, asn)
        measurement = enricher.enrich(_record(1, 2))  # far outside the plan
        assert measurement.src_country == UNKNOWN_COUNTRY
        assert measurement.src_city == UNKNOWN_CITY
        assert measurement.src_asn == UNKNOWN_ASN
        assert enricher.stats.geo_misses == 2

    def test_drop_unresolved_policy(self, geo_asn):
        geo, asn = geo_asn
        enricher = Enricher(geo, asn, drop_unresolved=True)
        assert enricher.enrich(_record(1, 2)) is None
        assert enricher.stats.dropped_unresolved == 1

    def test_partial_resolution_kept_even_when_dropping(self, plan, geo_asn):
        geo, asn = geo_asn
        enricher = Enricher(geo, asn, drop_unresolved=True)
        rng = random.Random(3)
        record = _record(plan.random_host(0, rng), 2)
        measurement = enricher.enrich(record)
        assert measurement is not None
        assert measurement.dst_country == UNKNOWN_COUNTRY

    def test_pair_properties(self, plan, geo_asn):
        geo, asn = geo_asn
        enricher = Enricher(geo, asn)
        rng = random.Random(4)
        measurement = enricher.enrich(
            _record(plan.random_host(0, rng), plan.random_host(6, rng))
        )
        assert measurement.location_pair == (
            plan.cities[0].name, plan.cities[6].name
        )
        assert measurement.asn_pair[0] > 0


def test_hand_written_init_is_the_generated_one(geo_asn, plan):
    from repro.analytics.enricher import EnrichedMeasurement, degraded_measurement
    from tests.core.test_latency import assert_init_matches_fields

    geo, asn = geo_asn
    record = _record(plan.random_host(0, random.Random(1)), 1)
    assert_init_matches_fields(EnrichedMeasurement, Enricher(geo, asn).enrich(record))
    assert_init_matches_fields(EnrichedMeasurement, degraded_measurement(record))
