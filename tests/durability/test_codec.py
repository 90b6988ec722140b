"""Snapshot envelope tests: exact round trip or a typed failure."""

import pytest

from repro.durability.codec import (
    SNAPSHOT_MAGIC,
    SnapshotError,
    decode_snapshot,
    encode_snapshot,
)

STATE = {
    "format": 1,
    "meta": {"profile": "clean", "seed": 42},
    "nested": {"list": [1, 2.5, "three", None, True], "empty": {}},
    "unicode": "tēnā koe",
}


class TestRoundTrip:
    def test_exact_round_trip(self):
        assert decode_snapshot(encode_snapshot(STATE)) == STATE

    def test_empty_dict(self):
        assert decode_snapshot(encode_snapshot({})) == {}

    def test_magic_leads_the_envelope(self):
        assert encode_snapshot(STATE).startswith(SNAPSHOT_MAGIC)


class TestRejection:
    def test_truncated_header(self):
        with pytest.raises(SnapshotError):
            decode_snapshot(encode_snapshot(STATE)[:10])

    def test_truncated_payload(self):
        blob = encode_snapshot(STATE)
        with pytest.raises(SnapshotError):
            decode_snapshot(blob[: len(blob) - 3])

    def test_bad_magic(self):
        blob = bytearray(encode_snapshot(STATE))
        blob[0] ^= 0xFF
        with pytest.raises(SnapshotError, match="magic"):
            decode_snapshot(bytes(blob))

    def test_unknown_version(self):
        blob = bytearray(encode_snapshot(STATE))
        blob[8] = 99
        with pytest.raises(SnapshotError, match="version"):
            decode_snapshot(bytes(blob))

    def test_payload_bit_flip_fails_checksum(self):
        blob = bytearray(encode_snapshot(STATE))
        blob[-1] ^= 0x01
        with pytest.raises(SnapshotError):
            decode_snapshot(bytes(blob))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SnapshotError):
            decode_snapshot(encode_snapshot(STATE) + b"xx")

    def test_empty_bytes(self):
        with pytest.raises(SnapshotError):
            decode_snapshot(b"")


class TestEncodeValidation:
    def test_non_json_state_fails_typed(self):
        with pytest.raises(SnapshotError):
            encode_snapshot({"bad": object()})

    def test_nan_fails_typed(self):
        with pytest.raises(SnapshotError):
            encode_snapshot({"bad": float("nan")})

    def test_cyclic_state_fails_typed(self):
        # The encoder no longer tracks container ids (check_circular is
        # off: a quarter of a checkpoint's encode); a cycle still fails
        # as SnapshotError, by way of the recursion limit.
        state = {"format": 2}
        state["self"] = state
        with pytest.raises(SnapshotError, match="not snapshot-serializable"):
            encode_snapshot(state)

    def test_infinity_fails_typed(self):
        # Components map ±inf to None in their state_dicts; the codec
        # enforces that nobody forgets.
        with pytest.raises(SnapshotError):
            encode_snapshot({"bad": float("inf")})
