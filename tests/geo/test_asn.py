"""AS database tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.asn import AsnDatabase, AsRecord
from repro.geo.trie import RadixTrie
from repro.net.addresses import ip_to_int


class TestAsnDatabase:
    def test_lookup_basic(self):
        db = AsnDatabase()
        db.add_prefix(ip_to_int("10.0.0.0"), 8, AsRecord(64500, "TestNet"))
        result = db.lookup(ip_to_int("10.20.30.40"))
        assert result.asn == 64500
        assert result.name == "TestNet"

    def test_more_specific_announcement_wins(self):
        db = AsnDatabase()
        db.add_prefix(ip_to_int("10.0.0.0"), 8, AsRecord(100, "wide"))
        db.add_prefix(ip_to_int("10.5.0.0"), 16, AsRecord(200, "narrow"))
        assert db.lookup(ip_to_int("10.5.1.1")).asn == 200
        assert db.lookup(ip_to_int("10.6.1.1")).asn == 100

    def test_unannounced_misses(self):
        db = AsnDatabase()
        db.add_prefix(ip_to_int("10.0.0.0"), 8, AsRecord(1, "x"))
        assert db.lookup(ip_to_int("11.0.0.1")) is None
        assert db.misses == 1
        assert db.hit_rate == 0.0

    def test_hit_rate(self):
        db = AsnDatabase()
        db.add_prefix(0, 1, AsRecord(1, "half-the-internet"))
        db.lookup(10)          # hit (top bit 0)
        db.lookup(1 << 31)     # miss
        assert db.hit_rate == 0.5

    def test_len(self):
        db = AsnDatabase()
        db.add_prefix(ip_to_int("10.0.0.0"), 8, AsRecord(1, "a"))
        db.add_prefix(ip_to_int("11.0.0.0"), 8, AsRecord(2, "b"))
        assert len(db) == 2


# -- the flattened lookup is the trie's, by another route ---------------------


def _prefixes(width):
    """Prefix sets that nest (/8 > /16 > /24 carve-outs), abut, and
    reach both ends: /0 and host routes included."""

    @st.composite
    def build(draw):
        chosen = {}
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            length = draw(
                st.sampled_from([0, 1, 8, 16, 24, width - 1, width])
                | st.integers(min_value=0, max_value=width)
            )
            bits = draw(st.integers(min_value=0, max_value=(1 << length) - 1)) if length else 0
            prefix = bits << (width - length)
            chosen[(prefix, length)] = AsRecord(len(chosen) + 1, f"AS{len(chosen) + 1}")
            # Often carve a more specific prefix out of, or put a
            # neighbour beside, the one just drawn.
            if length < width and draw(st.booleans()):
                deeper = draw(st.integers(min_value=length + 1, max_value=width))
                inside = prefix | (
                    draw(st.integers(min_value=0, max_value=(1 << (deeper - length)) - 1))
                    << (width - deeper)
                )
                chosen[(inside, deeper)] = AsRecord(len(chosen) + 1, "carve-out")
            if length and draw(st.booleans()):
                neighbour = (bits ^ 1) << (width - length)
                chosen[(neighbour, length)] = AsRecord(len(chosen) + 1, "neighbour")
        return chosen

    return build()


def _probes(prefixes, width, extra):
    """Every range boundary of every prefix, one either side of it, and
    the address space's own ends — clipped to the width."""
    top = (1 << width) - 1
    probes = {0, top, *extra}
    for prefix, length in prefixes:
        last = prefix | ((1 << (width - length)) - 1)
        probes.update((prefix - 1, prefix, prefix + 1, last - 1, last, last + 1))
    return sorted(address for address in probes if 0 <= address <= top)


class TestFlattenedLookupIsTheTries:
    @pytest.mark.parametrize("width", [32, 128])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_on_random_prefix_sets(self, width, data):
        prefixes = data.draw(_prefixes(width))
        extra = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=8)
        )
        db = AsnDatabase(width=width)
        reference = RadixTrie(width=width)
        for (prefix, length), record in prefixes.items():
            db.add_prefix(prefix, length, record)
            reference.insert(prefix, length, record)
        for address in _probes(prefixes, width, extra):
            assert db.lookup(address) is reference.lookup(address), hex(address)
        rows = list(reference.ranges())
        assert all(first <= last for first, last, _ in rows)
        assert all(
            earlier[1] < later[0] for earlier, later in zip(rows, rows[1:])
        ), "ranges overlap or are out of order"

    def test_an_announcement_after_a_lookup_is_seen(self):
        db = AsnDatabase()
        db.add_prefix(ip_to_int("10.0.0.0"), 8, AsRecord(1, "covering"))
        assert db.lookup(ip_to_int("10.1.2.3")).asn == 1
        db.add_prefix(ip_to_int("10.1.2.0"), 24, AsRecord(2, "carve-out"))
        assert db.lookup(ip_to_int("10.1.2.3")).asn == 2
        assert db.lookup(ip_to_int("10.1.3.3")).asn == 1
        db.add_prefix(ip_to_int("10.0.0.0"), 8, AsRecord(3, "re-announced"))
        assert db.lookup(ip_to_int("10.1.3.3")).asn == 3

    def test_counts_and_the_width_check_are_the_tries(self):
        db = AsnDatabase()
        db.add_prefix(0, 1, AsRecord(1, "low half"))
        assert db.lookup(1 << 31) is None
        assert (db.lookups, db.misses) == (1, 1)
        for wide in (1 << 32, -1):
            with pytest.raises(ValueError):
                db.lookup(wide)

    def test_an_empty_database_misses(self):
        assert AsnDatabase().lookup(5) is None
        assert list(RadixTrie().ranges()) == []
