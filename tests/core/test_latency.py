"""LatencyRecord tests."""

from repro.core.latency import Direction, LatencyRecord
from repro.net.addresses import ip_to_int, ipv6_to_int


def _record(**overrides):
    fields = dict(
        src_ip=ip_to_int("10.0.0.1"),
        dst_ip=ip_to_int("20.0.0.1"),
        src_port=40000,
        dst_port=443,
        internal_ns=10_000_000,
        external_ns=140_000_000,
        syn_ns=1_000_000_000,
        synack_ns=1_140_000_000,
        ack_ns=1_150_000_000,
    )
    fields.update(overrides)
    return LatencyRecord(**fields)


class TestLatencyRecord:
    def test_total_is_sum(self):
        record = _record()
        assert record.total_ns == 150_000_000
        assert record.total_ms == 150.0

    def test_millisecond_properties(self):
        record = _record()
        assert record.internal_ms == 10.0
        assert record.external_ms == 140.0

    def test_ipv4_text(self):
        record = _record()
        assert record.src_ip_text == "10.0.0.1"
        assert record.dst_ip_text == "20.0.0.1"

    def test_ipv6_text(self):
        record = _record(
            src_ip=ipv6_to_int("2001:db8::1"),
            dst_ip=ipv6_to_int("2001:db8::2"),
            is_ipv6=True,
        )
        assert record.src_ip_text == "2001:db8::1"

    def test_timestamp_is_ack_time(self):
        assert _record().timestamp_ns == 1_150_000_000

    def test_str_contains_components(self):
        text = str(_record())
        assert "internal=10.000ms" in text
        assert "external=140.000ms" in text
        assert "total=150.000ms" in text

    def test_frozen(self):
        record = _record()
        try:
            record.internal_ns = 5
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_direction_enum_values(self):
        assert Direction.OUTBOUND.value == "outbound"
        assert Direction.INBOUND.value == "inbound"


def assert_init_matches_fields(cls, sample):
    """A record class with a hand-written ``__init__`` (it fills the
    instance dict instead of paying a guarded ``__setattr__`` per field)
    must take exactly what the generated one would: the fields, in
    order, with their defaults — and build an equal, still-frozen,
    still-introspectable instance."""
    import dataclasses
    import inspect

    declared = dataclasses.fields(cls)
    parameters = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in parameters] == [f.name for f in declared]
    for parameter, field in zip(parameters, declared):
        default = (
            inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default
        )
        assert parameter.default == default, field.name
        assert field.default_factory is dataclasses.MISSING
    values = dataclasses.asdict(sample)
    assert list(values) == [f.name for f in declared]  # nothing extra in the dict
    assert cls(*values.values()) == cls(**values) == sample
    assert hash(cls(**values)) == hash(sample)
    assert dataclasses.replace(sample, **values) == sample
    assert dataclasses.astuple(sample) == tuple(values.values())
    for name in values:
        try:
            setattr(sample, name, None)
        except dataclasses.FrozenInstanceError:
            continue
        raise AssertionError(f"{cls.__name__}.{name} is assignable")


def test_hand_written_init_is_the_generated_one():
    assert_init_matches_fields(
        LatencyRecord, _record(is_ipv6=True, queue_id=3, rss_hash=0xBEEF)
    )
    assert _record() == _record(is_ipv6=False, queue_id=0, rss_hash=0)
