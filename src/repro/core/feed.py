"""The episode driver: the one place a packet stream is cut into batches.

Every run — ``RuruStack.run``, a bare pipeline's ``run_packets``, a
sharded run, a scenario, a recovery trial — offers the stream one batch
at a time, then drains its target. :func:`batches` is the cutter and
:func:`drive` the loop around it, so batch boundaries, the trailing
batch and the stop flag follow one rule whatever sits behind ``offer``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional

#: Frames per feed batch when the caller has no reason to pick another.
FEED_BATCH = 256


def batches(
    packets: Iterable,
    size: int,
    window_ns: Optional[int] = None,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[List]:
    """Cut a timestamp-sorted stream into ``[0:size] [size:2*size] …``,
    or, with *window_ns*, by virtual time, so the offered *rate* is what
    fills a batch. *stop* is polled each time the consumer comes back
    for more — after every batch it was handed — and once more before the
    trailing batch; truthy ends the stream. An empty tail yields nothing.
    """
    batch: List = []
    window_end: Optional[int] = None
    for packet in packets:
        if window_ns is None:
            cut = len(batch) >= size
        else:
            # The packet that opens the next window closes this one.
            if window_end is None:
                window_end = packet.timestamp_ns + window_ns
            cut = packet.timestamp_ns >= window_end
            while packet.timestamp_ns >= window_end:
                window_end += window_ns
        if cut:
            yield batch
            batch = []
            if stop is not None and stop():
                return
        batch.append(packet)
    if batch and not (stop is not None and stop()):
        yield batch


def drive(offer, packets: Iterable, size: int = FEED_BATCH, window_ns=None, stop=None):
    """Feed *packets* to *offer* batch by batch; the caller then drains."""
    for batch in batches(packets, size, window_ns, stop):
        offer(batch)
