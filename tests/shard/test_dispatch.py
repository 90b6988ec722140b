"""The dispatch seam: what ``_route_round`` emits → pipe bytes → what
``process_burst`` consumes, through one encode/decode pair.

The payload behind the pair is free to change; what must hold is the
round trip under any fragmentation of the pipe, and — until it does
change — that the bytes are exactly the wire framing of the batch
message, so a parent and a child from either side of this seam's
introduction interoperate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shard import protocol
from repro.shard.wire import StreamDecoder, encode_message
from tests.shard.test_wire import frames_strategy

U32 = st.integers(min_value=0, max_value=2**32 - 1)
U64 = st.integers(min_value=0, max_value=2**64 - 1)


@st.composite
def dispatches(draw):
    """``(seq, burst)`` as the router hands it over; the frames are the
    wire suite's own (empty ones included)."""
    datas = draw(st.one_of(st.just([]), frames_strategy))
    return draw(U64), [(draw(U64), draw(U32), data) for data in datas]


class TestDispatchSeam:
    @given(st.lists(dispatches(), min_size=1, max_size=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_round_trips_under_any_fragmentation(self, rounds, data):
        blob = b"".join(protocol.encode_dispatch(*each) for each in rounds)
        cuts = data.draw(
            st.lists(st.integers(0, len(blob)), max_size=12).map(sorted)
        )
        decoder = StreamDecoder()
        messages = []
        for start, end in zip([0, *cuts], [*cuts, len(blob)]):
            messages.extend(decoder.feed(blob[start:end]))
        decoder.check_eof()
        assert [m.topic for m in messages] == [protocol.BATCH_TOPIC] * len(rounds)
        assert [protocol.decode_dispatch(m) for m in messages] == rounds

    @given(dispatches())
    @settings(max_examples=50, deadline=None)
    def test_the_bytes_are_the_framed_batch_message(self, dispatch):
        assert protocol.encode_dispatch(*dispatch) == encode_message(
            protocol.encode_batch(*dispatch)
        )
