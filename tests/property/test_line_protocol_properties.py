"""Line protocol, both directions: the split parse equals the walk, and
what ``format_point`` writes ``parse_line`` reads back.

Every recovery reads the whole store through ``parse_line`` now that
the write-ahead log is the store's only durable image, so the fast
path (C-level splits on unescaped separators) is held to the
character-at-a-time walk it replaced: for any line — generated points
with hostile tag text, or arbitrary text over the protocol's own
alphabet — both return equal ``Point``s or both fail, the fast path
never with anything but the walk's own error.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tsdb import line_protocol
from repro.tsdb.line_protocol import (
    LineProtocolError,
    format_point,
    parse_line,
)
from repro.tsdb.point import Point

# The protocol's own separators and escape character, densely mixed
# with plain text: trailing backslashes, doubled backslashes, escaped
# and bare separators all turn up within a few characters.
HOSTILE = st.text(alphabet="\\, =ab#i1.\n", max_size=12)
NAME = HOSTILE.filter(lambda text: text != "")
VALUE = st.one_of(
    st.integers(min_value=-(10**18), max_value=10**18),
    st.floats(allow_nan=False, allow_infinity=False),
)
POINTS = st.builds(
    Point,
    measurement=NAME,
    timestamp_ns=st.integers(min_value=0, max_value=2**63),
    tags=st.dictionaries(HOSTILE, HOSTILE, max_size=4),
    fields=st.dictionaries(HOSTILE, VALUE, min_size=1, max_size=4),
)


def outcome(parse, line):
    """What *parse* makes of *line*: the point, or the error's type."""
    try:
        return parse(line)
    except ValueError as error:
        return type(error)


def walk(line):
    """``parse_line`` with the split path taken out."""
    line = line.strip()
    if not line or line.startswith("#"):
        raise LineProtocolError("empty or comment line")
    return line_protocol._parse_walk(line)


# The corners a random line rarely lands on exactly.
CORNERS = [
    "m,t=x\\\ny f=1 1",  # an escaped line break inside a tag value
    "m f=1 1 1",  # too many sections
    "m,t f=1",  # a tag with no value
    "m,t=a=b f=1",
    "m,=v f=1",  # empty tag key
    "m,t= f=1",  # empty tag value
    "m,,t=1 f=1",
    ",t=1 f=1",  # empty measurement: Point's own ValueError
    "m f=1\\",  # trailing backslash
    "m f=1i,g=1.5e3,h=-0.0",
    "m  f=1   5",  # runs of spaces
    "m\\ x,t\\,1=a\\=b f\\ 1=2i 7",  # every separator escaped
    "m\\a f=1",  # a backslash escaping a plain character
    "m f=1_0i",
    "m f=inf",
    "m f=1\\=2",
    "m f==1",
    "m f=",
    "m =1",
    "m f=1 x",
    "m",
    "#m f=1",
    "",
    "   ",
    "m\\\\ f=1",  # an escaped backslash: the walk's
    "m,t=a\\\\,u=b f=1 3",
]


class TestSplitParseEqualsTheWalk:
    @pytest.mark.parametrize("line", CORNERS)
    def test_on_the_corners(self, line):
        assert outcome(parse_line, line) == outcome(walk, line)

    @given(point=POINTS)
    @settings(max_examples=300)
    def test_on_formatted_points_with_hostile_tag_text(self, point):
        line = format_point(point)
        assert outcome(parse_line, line) == outcome(walk, line)

    @given(line=st.text(alphabet="\\, =ab#i1.-e\n", max_size=30))
    @settings(max_examples=300)
    def test_on_arbitrary_text_value_or_error(self, line):
        assert outcome(parse_line, line) == outcome(walk, line)

    @given(
        sections=st.lists(
            st.text(alphabet="\\,=ab#i1.\n", max_size=8), max_size=5
        ),
        gaps=st.lists(st.sampled_from([" ", "  ", "\\ "]), min_size=5, max_size=5),
    )
    @settings(max_examples=500)
    def test_on_line_shaped_text_value_or_error(self, sections, gaps):
        """One to five sections between bare, doubled and escaped
        spaces: most examples are nearly a line (too many sections, a
        tag with no value, an escaped newline, a field that is not a
        number) rather than noise."""
        line = "".join(part + gap for part, gap in zip(sections, gaps))
        assert outcome(parse_line, line) == outcome(walk, line)

    @given(point=POINTS, cut=st.integers(min_value=0, max_value=200))
    @settings(max_examples=200)
    def test_on_truncated_lines(self, point, cut):
        line = format_point(point)[:cut]
        assert outcome(parse_line, line) == outcome(walk, line)

    def test_the_split_path_is_the_one_taken(self, monkeypatch):
        """An ordinary line (escaped separators, no escaped backslash)
        never reaches the walk — the property above is not vacuous."""
        monkeypatch.setattr(
            line_protocol, "_parse_walk", lambda line: 1 / 0
        )
        point = Point(
            "latency", 5, tags={"city": "Los Angeles", "k=": "a,b"},
            fields={"total_ms": 148.25, "count": 3},
        )
        assert parse_line(format_point(point)) == point

    def test_an_escaped_backslash_takes_the_walk(self, monkeypatch):
        monkeypatch.setattr(
            line_protocol, "_parse_split", lambda line: 1 / 0
        )
        point = Point("m", 5, tags={"path": "C:\\tmp\\"}, fields={"v": 1})
        assert parse_line(format_point(point)) == point


class TestRoundTrip:
    @given(point=POINTS)
    @settings(max_examples=300)
    def test_parse_of_format_is_the_point(self, point):
        line = format_point(point)
        if "\n" in line or line != line.strip() or line.startswith("#"):
            # format_point escapes the protocol's separators, not line
            # breaks, edge whitespace or a leading '#': such a point
            # never was one data line.
            return
        parsed = parse_line(line)
        assert parsed == point
        assert format_point(parsed) == line

    @given(point=POINTS)
    @settings(max_examples=200)
    def test_memoised_escape_is_byte_identical(self, point):
        """The memo returns what the four replaces would."""
        memoised = format_point(point)
        line_protocol._escape.cache_clear()
        assert format_point(point) == memoised
        for text in (point.measurement, *point.tags, *point.tags.values()):
            assert line_protocol._escape(text) == line_protocol._escape.__wrapped__(text)


def unmemoised_head(point):
    """The line's ``measurement,tag=…`` head, walked out afresh from the
    point's own text with the unmemoised escape."""
    escape = line_protocol._escape.__wrapped__
    return escape(point.measurement) + "".join(
        f",{escape(key)}={escape(point.tags[key])}" for key in sorted(point.tags)
    )


class TestMemoisedHead:
    @given(point=POINTS)
    @settings(max_examples=300)
    def test_equals_the_unmemoised_walk_on_hostile_text(self, point):
        head = unmemoised_head(point)
        for _ in range(2):  # a miss, then a hit
            assert format_point(point).startswith(head + " ")
            assert line_protocol._head(point.series_key()) == head
        line_protocol._head.cache_clear()
        assert line_protocol._head(point.series_key()) == head

    @given(points=st.lists(POINTS, min_size=2, max_size=6))
    @settings(max_examples=100)
    def test_series_that_differ_never_share_a_head(self, points):
        heads = {}
        for point in points:
            heads.setdefault(line_protocol._head(point.series_key()), set()).add(
                point.series_key()
            )
        # Escaping is injective, so one head is one series.
        assert all(len(keys) == 1 for keys in heads.values())

    def test_the_table_is_bounded(self):
        line_protocol._head.cache_clear()
        bound = line_protocol._head.cache_info().maxsize
        assert bound is not None
        for i in range(bound + 50):
            format_point(Point("m", 1, tags={"k": str(i)}, fields={"v": 1}))
        assert line_protocol._head.cache_info().currsize == bound
        # ... and past the bound the answer is still the walk's.
        late = Point("m", 1, tags={"k": str(bound + 49)}, fields={"v": 1})
        assert format_point(late) == unmemoised_head(late) + " v=1i 1"


class TestSeriesIdentityIsFixedAtConstruction:
    """A point's tags dict mutated after construction is *not rejected*
    (the dict is the caller's); it is *not mis-keyed* either: the store
    and the line protocol both read the key fixed at construction, so
    the point is filed and logged under one and the same series."""

    def test_a_mutated_tags_dict_moves_neither_the_series_nor_the_line(self):
        from repro.tsdb.database import TimeSeriesDatabase

        tags = {"city": "Auckland"}
        point = Point("latency", 5, tags=tags, fields={"ms": 1.5})
        key, line = point.series_key(), format_point(point)
        tags["city"] = "Wellington"
        tags["extra"] = "x"
        assert point.series_key() == key
        assert format_point(point) == line == "latency,city=Auckland ms=1.5 5"
        store = TimeSeriesDatabase()
        store.write_batch([point])
        (series,) = store.storage.series_for("latency")
        assert series.tags == {"city": "Auckland"}
        # What the log would replay is what the store holds.
        assert parse_line(line).series_key() == key
        assert list(store.dump_lines()) == [line]

    @given(point=POINTS)
    @settings(max_examples=100)
    def test_the_key_is_the_sorted_tagset(self, point):
        assert point.series_key() == (point.measurement, tuple(sorted(point.tags.items())))
        assert point.series_key() is point.series_key()
