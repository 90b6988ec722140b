"""However the input is cut into polls, the analytics tier does the same.

A poll is the unit of *work* — one write request, one publish pass —
not a unit of *meaning*: the same record stream taken as one poll, as
polls of one, or as any run of poll sizes must leave the same store,
publish the same feed in the same order, close the same ledger, park
the same dead letters and walk the enrichment breaker through the same
transitions. Held on the three profiles whose dice sit on the record
path (none of them rolls a ``tsdb`` die: a store that rejects
*requests* sees coarser requests from bigger polls, by design).
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics.service import LATENCY_TOPIC, AnalyticsService
from repro.core.pipeline import RuruPipeline
from repro.faults import FaultInjector, FaultyPushSocket, FlakyAsnDatabase, FlakyGeoDatabase
from repro.faults.profiles import get_profile
from repro.geo.builder import GeoDbBuilder
from repro.mq.codec import encode_latency_record
from repro.mq.frames import Message
from repro.mq.socket import Context
from repro.resilience import ResilienceLayer
from repro.traffic.scenarios import AucklandLaScenario

NS_PER_S = 1_000_000_000
SEED = 42
PROFILES = ("clean", "lossy-mq", "flaky-geo")


@functools.lru_cache(maxsize=None)
def world():
    """The enrichment databases and ~180 encoded latency records."""
    generator = AucklandLaScenario(
        duration_ns=6 * NS_PER_S, mean_flows_per_s=30, seed=SEED, diurnal=False
    ).build()
    pipeline = RuruPipeline()
    pipeline.run_packets(generator.packet_list())
    payloads = [encode_latency_record(record) for record in pipeline.measurements]
    return GeoDbBuilder(plan=generator.plan).build(), payloads


def outcome(profile_name, cuts):
    """Feed the whole stream, take it in polls of *cuts* (then whatever
    is left), finish; everything an observer could tell runs apart by."""
    (geo, asn), payloads = world()
    profile = get_profile(profile_name)
    injector = FaultInjector(profile, seed=SEED)
    if profile.geo_failure_rate > 0:
        geo = FlakyGeoDatabase(geo, injector)
    if profile.asn_failure_rate > 0:
        asn = FlakyAsnDatabase(asn, injector)
    layer = ResilienceLayer(seed=SEED)
    service = AnalyticsService(Context(), geo, asn, num_workers=2, resilience=layer)
    feed = service.subscribe_frontend(hwm=1 << 20)
    push = FaultyPushSocket(service.connect_pipeline(), injector)
    for payload in payloads:
        push.send(Message.with_topic(LATENCY_TOPIC, payload))
    for size in cuts:
        service.poll(max_messages=size)
    service.finish()
    assert not service._request, "a poll left points behind"
    return {
        "store": sorted(service.tsdb.dump_lines()),
        "published": [message.payload[0] for message in feed.recv_all()],
        "ledger": service.conservation_ledger(),
        "dead letters": layer.dlq.entries(),
        "enrich breaker": layer.enrich_breaker.transitions,
        "counters": layer.state_dict()["counters"],
    }


@functools.lru_cache(maxsize=None)
def one_poll(profile_name):
    return outcome(profile_name, ())


@pytest.mark.parametrize("profile", PROFILES)
def test_polls_of_one_equal_one_poll(profile):
    whole = one_poll(profile)
    assert whole["ledger"].ok and whole["ledger"].processed > 100
    assert outcome(profile, [1] * len(world()[1])) == whole


@given(
    profile=st.sampled_from(PROFILES),
    cuts=st.lists(st.integers(min_value=1, max_value=96), max_size=40),
)
@settings(max_examples=25, deadline=None)
def test_any_poll_sizes_equal_one_poll(profile, cuts):
    assert outcome(profile, cuts) == one_poll(profile)


def test_the_profiles_bite():
    """The property is vacuous on a profile that injects nothing."""
    assert one_poll("lossy-mq")["dead letters"]
    assert one_poll("flaky-geo")["enrich breaker"]
    assert one_poll("lossy-mq")["published"] != one_poll("clean")["published"]
