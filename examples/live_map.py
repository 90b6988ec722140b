#!/usr/bin/env python
"""The demo's live 3D map, server side: arcs over a WebSocket at 30 fps.

The browser's WebGL renderer is out of scope, but everything it
consumes is produced here: geo-enriched measurements stream over the
PUB/SUB fabric, become colour-coded great-circle arcs, get batched
into ≤30 frames per virtual second with a per-frame arc budget, and
go out as real RFC 6455 text frames. The example prints the frame
statistics and an ASCII rendering of where the arcs land.

Run:  python examples/live_map.py
"""

from collections import Counter

from repro import build_live_stack
from repro.frontend.arcs import great_circle_points
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.traffic.scenarios import AucklandLaScenario, FirewallGlitchInjector

NS_PER_S = 1_000_000_000


def ascii_world(arcs, width=72, height=20) -> str:
    """Plot arc paths on a tiny ASCII world grid."""
    grid = [[" "] * width for _ in range(height)]
    for arc in arcs:
        for lat, lon in great_circle_points(*arc.src, *arc.dst, segments=24):
            x = int((lon + 180) / 360 * (width - 1))
            y = int((90 - lat) / 180 * (height - 1))
            mark = {"green": ".", "yellow": "o", "red": "@"}[arc.color]
            if grid[y][x] != "@":  # red always wins the cell
                grid[y][x] = mark
    return "\n".join("".join(row) for row in grid)


def main() -> None:
    # Inject a short glitch so some arcs render red, as in the demo
    # ("red lines in areas where most lines are green").
    glitch = FirewallGlitchInjector(
        window_start_offset_ns=4 * NS_PER_S, window_ns=3 * NS_PER_S
    )
    generator = AucklandLaScenario(
        duration_ns=12 * NS_PER_S, mean_flows_per_s=60, seed=7, diurnal=False
    ).build(injectors=[glitch])

    channel = WebSocketChannel(name="browser")
    view = LiveMapView(channel=channel, fps=30, arc_ttl_s=30.0,
                       max_arcs_per_frame=1000)
    all_arcs = []

    def draw(measurement) -> None:
        frame = view.observe(measurement)
        if frame:
            all_arcs.extend(frame.arcs)

    # The map is the frontend stage's subscriber: it is fed while the
    # packets are still arriving, as the deployed map is.
    stack = build_live_stack(generator=generator, queues=4, frontend_hwm=10_000)
    stack.graph.get("frontend").observers.append(draw)
    stack.run()
    last = view.finish()
    all_arcs.extend(last.arcs)
    last_ns = last.timestamp_ns

    print(ascii_world(all_arcs))
    print()
    colors = Counter(arc.color for arc in all_arcs)
    print(f"Arcs drawn:   {len(all_arcs)} "
          f"(green={colors['green']}, yellow={colors['yellow']}, "
          f"red={colors['red']})")
    print(f"Frames sent:  {view.frames_sent} over {last_ns / NS_PER_S:.0f} "
          f"virtual seconds ({view.frames_sent / (last_ns / NS_PER_S):.1f} fps)")
    print(f"Feed volume:  {channel.bytes_to_client / 1024:.1f} KiB on the wire")
    print("Busiest pairs (Space-Saving heavy-hitter estimate):")
    for (src, dst), count in view.busiest_pairs(5):
        print(f"  {src:>16} -> {dst:<16} {count} connections")


if __name__ == "__main__":
    main()
