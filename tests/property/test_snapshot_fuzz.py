"""Fuzz the snapshot envelope: damage must fail as SnapshotError.

The recovery path trusts :func:`decode_snapshot` completely: whatever
it returns is loaded into flow tables, aggregators and the resilience
ledger. The contract under test mirrors the wire-codec fuzz suite —
for *any* truncation, bit flip or arbitrary junk, decoding either
returns the exact original dictionary or raises
:class:`SnapshotError`. Never partial state, never a leaked
``struct.error`` / ``pickle.UnpicklingError``. The payload is a
restricted pickle, so the properties below also pin what it may hold:
plain data round-trips with its types, equal values encode to equal
bytes, a global is never resolved, and NaN/±inf are refused wherever
they sit — but not their bit patterns inside bytes or text.
"""

import math
import pickle
import struct
import zlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.durability.codec import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SnapshotError,
    decode_snapshot,
    encode_snapshot,
)

VALID_STATE = {
    "format": 1,
    "meta": {"profile": "lossy-mq", "seed": 42, "queues": 2},
    "pipeline": {"workers": [{"flows": [[1, 2], [3, 4]]}, {"flows": []}]},
    "service": {"records_in": 120, "now_ns": 4_811_568_885},
    "tsdb_lines": ["latency,pair=NZ-US total_ms=148.2 123456789"],
    "frontend": {"received": 99, "degraded": 3},
}

VALID_BLOB = encode_snapshot(VALID_STATE)


def _decode_must_be_clean(data):
    """Decode; success must be exact, failure must be SnapshotError."""
    try:
        state = decode_snapshot(data)
    except SnapshotError:
        return
    # Anything that decodes must be the genuine article — a mangled
    # blob that "succeeds" into different state would corrupt recovery.
    assert state == VALID_STATE


class TestTruncation:
    @given(cut=st.integers(min_value=0, max_value=len(VALID_BLOB) - 1))
    @settings(max_examples=100)
    def test_every_truncation_point(self, cut):
        _decode_must_be_clean(VALID_BLOB[:cut])


class TestBitFlips:
    @given(
        position=st.integers(min_value=0, max_value=len(VALID_BLOB) - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=200)
    def test_single_bit_flips(self, position, mask):
        mangled = bytearray(VALID_BLOB)
        mangled[position] ^= mask
        _decode_must_be_clean(bytes(mangled))

    @given(
        positions=st.lists(
            st.integers(min_value=0, max_value=len(VALID_BLOB) - 1),
            min_size=2,
            max_size=8,
        ),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=100)
    def test_multi_byte_corruption(self, positions, mask):
        mangled = bytearray(VALID_BLOB)
        for position in positions:
            mangled[position] ^= mask
        _decode_must_be_clean(bytes(mangled))


class TestJunk:
    @given(junk=st.binary(max_size=256))
    @settings(max_examples=200)
    def test_arbitrary_junk(self, junk):
        _decode_must_be_clean(junk)

    @given(tail=st.binary(min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_trailing_garbage(self, tail):
        _decode_must_be_clean(VALID_BLOB + tail)

    @given(junk=st.binary(max_size=64))
    @settings(max_examples=100)
    def test_junk_behind_valid_header(self, junk):
        _decode_must_be_clean(VALID_BLOB[:17] + junk)


class TestRoundTripProperty:
    @given(
        state=st.dictionaries(
            keys=st.text(min_size=1, max_size=12),
            values=st.recursive(
                st.one_of(
                    st.none(),
                    st.booleans(),
                    st.integers(min_value=-(2**53), max_value=2**53),
                    st.floats(allow_nan=False, allow_infinity=False, width=32),
                    st.text(max_size=24),
                ),
                lambda children: st.one_of(
                    st.lists(children, max_size=4),
                    st.dictionaries(
                        st.text(min_size=1, max_size=8), children, max_size=4
                    ),
                ),
                max_leaves=12,
            ),
            max_size=6,
        )
    )
    @settings(max_examples=150)
    def test_any_json_state_round_trips(self, state):
        assert decode_snapshot(encode_snapshot(state)) == state


# -- the restricted pickle -----------------------------------------------------

ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
    st.text(max_size=12),
    st.binary(max_size=12),
)
KEYS = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.tuples(st.text(max_size=4), st.integers()),
    st.tuples(st.integers(), st.integers(), st.booleans()),
)
PLAIN = st.recursive(
    ATOMS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=4),
    ),
    max_leaves=16,
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _typed(value):
    """*value* with every type spelled out and every float by its bits,
    so ``1 == 1.0 == True`` and ``0.0 == -0.0`` no longer compare equal."""
    kind = type(value)
    if kind is float:
        return ("float", struct.pack("<d", value))
    if kind is dict:
        return ("dict", [(_typed(key), _typed(item)) for key, item in value.items()])
    if kind in (list, tuple):
        return (kind.__name__, [_typed(item) for item in value])
    return (kind.__name__, value)


def _fresh(value):
    """An equal copy that shares no container (and no str/bytes object of
    two or more characters) with *value*."""
    kind = type(value)
    if kind is dict:
        return {_fresh(key): _fresh(item) for key, item in value.items()}
    if kind in (list, tuple):
        return kind(_fresh(item) for item in value)
    if kind is str:
        return value.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")
    if kind is bytes:
        return bytes(bytearray(value))
    return value


def _envelope(payload):
    header = struct.pack("!8sBII", SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(payload), zlib.crc32(payload))
    return header + payload


class TestPlainData:
    @given(state=st.dictionaries(KEYS, PLAIN, max_size=6))
    @settings(max_examples=60)
    def test_round_trips_with_types_preserved(self, state):
        assert _typed(decode_snapshot(encode_snapshot(state))) == _typed(state)

    @given(value=PLAIN)
    @settings(max_examples=50)
    def test_shared_or_copied_objects_encode_to_the_same_bytes(self, value):
        """The pickler keeps no memo: bytes depend on values only."""
        shared = {"a": value, "b": [value, value], "c": (value,)}
        copied = {"a": _fresh(value), "b": [_fresh(value), _fresh(value)], "c": (_fresh(value),)}
        assert encode_snapshot(shared) == encode_snapshot(copied)

    @given(
        argument=st.text(alphabet="abcdefghij ", max_size=12),
        stack_global=st.booleans(),
        wrapped=st.booleans(),
    )
    @settings(max_examples=60)
    def test_a_pickle_naming_os_system_is_never_resolved(self, argument, stack_global, wrapped):
        text = argument.encode("ascii")
        call = (
            b"\x8c\x02os\x8c\x06system\x93" if stack_global else b"cos\nsystem\n"
        ) + b"\x8c" + bytes([len(text)]) + text + b"\x85R"
        payload = b"\x80\x04" + (b"}\x8c\x01x" + call + b"s." if wrapped else call + b".")
        with mock.patch("os.system") as system:
            try:
                decode_snapshot(_envelope(payload))
            except SnapshotError:
                pass
            else:
                raise AssertionError("a pickle naming os.system decoded")
        system.assert_not_called()

    @given(tail=st.binary(min_size=1, max_size=16))
    @settings(max_examples=50)
    def test_bytes_after_the_pickle_end_are_refused_under_a_valid_crc(self, tail):
        payload = pickle.dumps({"format": 3}, protocol=5) + tail
        try:
            decode_snapshot(_envelope(payload))
        except SnapshotError:
            return
        raise AssertionError(f"a payload with {tail!r} after its end decoded")

    @given(
        bad=st.recursive(
            st.one_of(NON_FINITE, NON_FINITE.map(lambda key: {key: 0})),
            lambda inner: st.one_of(
                st.tuples(st.lists(PLAIN, max_size=2), inner).map(lambda pair: [*pair[0], pair[1]]),
                st.tuples(inner, PLAIN),
                st.builds(lambda rest, key, item: {**rest, key: item},
                          st.dictionaries(KEYS, PLAIN, max_size=2), KEYS, inner),
            ),
            max_leaves=6,
        )
    )
    @settings(max_examples=60)
    def test_nan_and_infinity_are_refused_at_any_depth(self, bad):
        try:
            encode_snapshot({"format": 3, "bad": bad})
        except SnapshotError:
            return
        raise AssertionError(f"{bad!r} encoded")

    @given(
        head=st.binary(max_size=8),
        tail=st.binary(max_size=8),
        text=st.text(max_size=8),
        pattern=st.sampled_from([math.nan, math.inf, -math.inf]).map(lambda v: struct.pack(">d", v)),
    )
    @settings(max_examples=100)
    def test_their_bit_patterns_in_bytes_and_text_are_not_refused(self, head, tail, text, pattern):
        state = {
            "bytes": head + b"G" + pattern + tail,
            "text": text + "G\x7f\U0001F600",
            "floats": struct.pack(f"<{len(head)}d", *[1e300] * len(head)) + b"G\xff\xf8",
        }
        assert decode_snapshot(encode_snapshot(state)) == state
