"""The live map's server-side state machine.

The browser draws whatever frames it is sent; everything measurable
about "multiple thousands of connections per second on a live 3D map
… with 30 fps" happens here: measurements become arcs, arcs live for
a few seconds then expire, and the feed is batched into frames no
faster than the configured fps, each frame bounded to an arc budget
so a burst cannot melt the client.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.analytics.enricher import EnrichedMeasurement
from repro.analytics.topk import SpaceSaving
from repro.frontend.arcs import Arc, LatencyColorScale
from repro.frontend.websocket import WebSocketChannel

NS_PER_S = 1_000_000_000


@dataclass
class MapFrame:
    """One frame of the feed: arcs added since the previous frame."""

    frame_index: int
    timestamp_ns: int
    arcs: List[Arc] = field(default_factory=list)
    active_arcs: int = 0
    dropped_arcs: int = 0

    def to_json(self) -> dict:
        return {
            "frame": self.frame_index,
            "t_ms": self.timestamp_ns // 1_000_000,
            "active": self.active_arcs,
            "dropped": self.dropped_arcs,
            "arcs": [arc.to_json() for arc in self.arcs],
        }


class LiveMapView:
    """Batches measurements into ≤fps frames with bounded arc counts.

    Args:
        channel: WebSocket channel to the browser (frames are also
            kept in :attr:`frames` for inspection when None).
        fps: maximum frame rate (paper: 30).
        arc_ttl_s: how long an arc stays on the map.
        max_arcs_per_frame: new-arc budget per frame; overflow within
            a frame interval is dropped and counted, which is how a
            real feed protects the renderer.
        scale: latency colour scale.
    """

    def __init__(
        self,
        channel: Optional[WebSocketChannel] = None,
        fps: int = 30,
        arc_ttl_s: float = 3.0,
        max_arcs_per_frame: int = 500,
        scale: Optional[LatencyColorScale] = None,
    ):
        if fps <= 0:
            raise ValueError("fps must be positive")
        if arc_ttl_s <= 0:
            raise ValueError("arc_ttl_s must be positive")
        if max_arcs_per_frame <= 0:
            raise ValueError("max_arcs_per_frame must be positive")
        self.channel = channel
        self.fps = fps
        self.frame_interval_ns = NS_PER_S // fps
        self.arc_ttl_ns = int(arc_ttl_s * NS_PER_S)
        self.max_arcs_per_frame = max_arcs_per_frame
        self.scale = scale or LatencyColorScale()

        self._pending: List[Arc] = []
        self._active: Deque[Arc] = deque()
        # Bounded heavy-hitter tracking for the "busiest pairs" widget.
        self._pair_tracker: SpaceSaving = SpaceSaving(capacity=256)
        self._last_frame_ns: Optional[int] = None
        self._frame_index = 0
        self.frames: List[MapFrame] = []
        self.arcs_in = 0
        self.arcs_dropped = 0
        self.frames_sent = 0
        self._last_seen_ns = 0

    # -- input ---------------------------------------------------------------

    def observe(self, measurement: EnrichedMeasurement) -> Optional[MapFrame]:
        """Feed one measurement on its own timestamp — the shape of a
        frontend-stage observer; returns the frame if one was due."""
        now_ns = measurement.timestamp_ns
        self._last_seen_ns = max(self._last_seen_ns, now_ns)
        self.add_measurement(measurement, now_ns)
        return self.tick(now_ns)

    def finish(self) -> MapFrame:
        """Flush what :meth:`observe` left pending as a last frame."""
        return self.flush_frame(self._last_seen_ns)

    def add_measurement(self, measurement: EnrichedMeasurement, now_ns: int) -> None:
        """Queue a measurement's arc for the next frame."""
        self.arcs_in += 1
        self._pair_tracker.add(measurement.location_pair)
        if len(self._pending) >= self.max_arcs_per_frame:
            self.arcs_dropped += 1
            return
        self._pending.append(Arc.from_measurement(measurement, self.scale, now_ns))

    # -- ticking ---------------------------------------------------------------

    def tick(self, now_ns: int) -> Optional[MapFrame]:
        """Emit a frame if the frame interval elapsed; else None.

        Call as often as convenient — at most ``fps`` frames per
        virtual second come out.
        """
        if (
            self._last_frame_ns is not None
            and now_ns - self._last_frame_ns < self.frame_interval_ns
        ):
            return None
        return self.flush_frame(now_ns)

    def flush_frame(self, now_ns: int) -> MapFrame:
        """Unconditionally emit a frame with everything pending."""
        self._expire(now_ns)
        arcs, self._pending = self._pending, []
        self._active.extend(arcs)
        dropped_now = self.arcs_dropped
        frame = MapFrame(
            frame_index=self._frame_index,
            timestamp_ns=now_ns,
            arcs=arcs,
            active_arcs=len(self._active),
            dropped_arcs=dropped_now,
        )
        self._frame_index += 1
        self._last_frame_ns = now_ns
        self.frames_sent += 1
        if self.channel is not None:
            self.channel.server_send_json(frame.to_json())
        else:
            self.frames.append(frame)
        return frame

    def _expire(self, now_ns: int) -> None:
        cutoff = now_ns - self.arc_ttl_ns
        while self._active and self._active[0].born_ns < cutoff:
            self._active.popleft()

    # -- reporting --------------------------------------------------------------

    @property
    def active_arc_count(self) -> int:
        return len(self._active)

    def busiest_pairs(self, k: int = 5) -> List[tuple]:
        """Top city pairs by connection count (Space-Saving estimate):
        ``[((src, dst), count), ...]``, largest first."""
        return [
            (entry.key, entry.count) for entry in self._pair_tracker.top(k)
        ]

    def color_histogram(self) -> dict:
        """Counts of active arcs by colour — the operator's glance:
        'red lines in areas where most lines are green'.
        """
        histogram = {"green": 0, "yellow": 0, "red": 0}
        for arc in self._active:
            histogram[arc.color] = histogram.get(arc.color, 0) + 1
        return histogram
