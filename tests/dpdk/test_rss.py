"""RSS hash tests — including the symmetry property Ruru depends on."""

import random
import struct

import pytest

from repro.dpdk.rss import (
    DEFAULT_RSS_KEY,
    SYMMETRIC_RSS_KEY,
    RssHasher,
    make_symmetric_key,
    toeplitz_hash,
)


class TestToeplitzReference:
    def test_microsoft_verification_vector(self):
        # Known-answer test from the Microsoft RSS specification:
        # 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178
        data = struct.pack(
            "!IIHH",
            int.from_bytes(bytes([66, 9, 149, 187]), "big"),
            int.from_bytes(bytes([161, 142, 100, 80]), "big"),
            2794,
            1766,
        )
        # The spec orders the tuple dst,src on the wire; its published
        # input is (src addr, dst addr, src port, dst port) of the
        # *receive* direction: 161.142.100.80:1766 <- 66.9.149.187:2794.
        data = struct.pack(
            "!IIHH",
            int.from_bytes(bytes([66, 9, 149, 187]), "big"),
            int.from_bytes(bytes([161, 142, 100, 80]), "big"),
            2794,
            1766,
        )
        assert toeplitz_hash(DEFAULT_RSS_KEY, data) == 0x51CCC178

    def test_second_verification_vector(self):
        # 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
        data = struct.pack(
            "!IIHH",
            int.from_bytes(bytes([199, 92, 111, 2]), "big"),
            int.from_bytes(bytes([65, 69, 140, 83]), "big"),
            14230,
            4739,
        )
        assert toeplitz_hash(DEFAULT_RSS_KEY, data) == 0xC626B0EA

    def test_key_too_short_rejected(self):
        with pytest.raises(ValueError):
            toeplitz_hash(b"\x01" * 10, b"\x00" * 12)


class TestSymmetricKey:
    def test_pattern_repeats(self):
        key = make_symmetric_key(40, b"\xab\xcd")
        assert key == b"\xab\xcd" * 20

    def test_odd_length(self):
        assert len(make_symmetric_key(39)) == 39

    def test_bad_pattern_rejected(self):
        with pytest.raises(ValueError):
            make_symmetric_key(40, b"\x01")


class TestRssHasher:
    def test_table_matches_reference(self):
        hasher = RssHasher(key=DEFAULT_RSS_KEY)
        rng = random.Random(3)
        for _ in range(50):
            data = bytes(rng.getrandbits(8) for _ in range(12))
            assert hasher.hash_bytes(data) == toeplitz_hash(DEFAULT_RSS_KEY, data)

    def test_symmetric_key_is_symmetric_ipv4(self):
        hasher = RssHasher(key=SYMMETRIC_RSS_KEY)
        rng = random.Random(9)
        for _ in range(100):
            src, dst = rng.getrandbits(32), rng.getrandbits(32)
            sport, dport = rng.getrandbits(16), rng.getrandbits(16)
            forward = hasher.hash_ipv4_tuple(src, dst, sport, dport)
            reverse = hasher.hash_ipv4_tuple(dst, src, dport, sport)
            assert forward == reverse

    def test_symmetric_key_is_symmetric_ipv6(self):
        hasher = RssHasher(key=SYMMETRIC_RSS_KEY)
        rng = random.Random(10)
        for _ in range(30):
            src, dst = rng.getrandbits(128), rng.getrandbits(128)
            sport, dport = rng.getrandbits(16), rng.getrandbits(16)
            forward = hasher.hash_tuple(src, dst, sport, dport, True)
            reverse = hasher.hash_tuple(dst, src, dport, sport, True)
            assert forward == reverse

    def test_default_key_is_not_symmetric(self):
        hasher = RssHasher(key=DEFAULT_RSS_KEY)
        asymmetric = 0
        rng = random.Random(4)
        for _ in range(50):
            src, dst = rng.getrandbits(32), rng.getrandbits(32)
            sport, dport = rng.getrandbits(16), rng.getrandbits(16)
            if hasher.hash_ipv4_tuple(src, dst, sport, dport) != hasher.hash_ipv4_tuple(
                dst, src, dport, sport
            ):
                asymmetric += 1
        assert asymmetric > 40  # virtually all tuples break symmetry

    def test_is_symmetric_property(self):
        assert RssHasher(key=SYMMETRIC_RSS_KEY).is_symmetric
        assert not RssHasher(key=DEFAULT_RSS_KEY).is_symmetric

    def test_queue_selection_in_range(self):
        hasher = RssHasher(num_queues=6)
        rng = random.Random(5)
        for _ in range(200):
            queue = hasher.queue_for_hash(rng.getrandbits(32))
            assert 0 <= queue < 6

    def test_queue_spread_roughly_uniform(self):
        hasher = RssHasher(num_queues=4)
        rng = random.Random(6)
        counts = [0, 0, 0, 0]
        total = 4000
        for _ in range(total):
            h = hasher.hash_ipv4_tuple(
                rng.getrandbits(32), rng.getrandbits(32),
                rng.getrandbits(16), rng.getrandbits(16),
            )
            counts[hasher.queue_for_hash(h)] += 1
        for count in counts:
            assert 0.15 < count / total < 0.35

    def test_custom_reta(self):
        hasher = RssHasher(num_queues=2)
        hasher.set_reta([1] * 128)
        assert hasher.queue_for_hash(12345) == 1

    def test_reta_validation(self):
        hasher = RssHasher(num_queues=2)
        with pytest.raises(ValueError):
            hasher.set_reta([0, 1, 2, 3])  # queue 2,3 out of range
        with pytest.raises(ValueError):
            hasher.set_reta([0] * 100)  # not a power of two

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RssHasher(num_queues=0)
        with pytest.raises(ValueError):
            RssHasher(reta_size=100)
        with pytest.raises(ValueError):
            RssHasher(key=b"\x01" * 8)
