#!/usr/bin/env python
"""Network planning from Ruru data, the paper's second use case.

An operator planning capacity wants to know, per destination: how far
is measured latency from the physical floor, how much of the
end-to-end budget is the international hop, and which paths would
benefit most from a new peering. All of it falls out of the TSDB the
pipeline populates, queried exactly the way Grafana panels would.

Run:  python examples/network_planning.py
"""

from repro import build_live_stack
from repro.frontend.dashboard import build_ruru_dashboard
from repro.geo.distance import rtt_floor_ms
from repro.geo.locations import city_by_name
from repro.stack import build_enrichment_dbs
from repro.tsdb.query import Query
from repro.traffic.scenarios import AucklandLaScenario

NS_PER_S = 1_000_000_000


def main() -> None:
    generator = AucklandLaScenario(
        duration_ns=30 * NS_PER_S, mean_flows_per_s=60, seed=21, diurnal=False
    ).build()
    stack = build_live_stack(
        generator=generator,
        queues=4,
        geo_asn=build_enrichment_dbs(generator.plan, country_accuracy=1.0),
    )
    stack.run()
    tsdb = stack.tsdb

    tap = city_by_name("Auckland")

    print(f"{'destination':<16} {'conns':>6} {'median ms':>10} "
          f"{'floor ms':>9} {'slack ms':>9} {'ext share':>9}")
    print("-" * 66)
    rows = []
    for dst_city in tsdb.tag_values("latency", "dst_city"):
        if dst_city in ("Unknown",):
            continue
        city = city_by_name(dst_city)
        if city is None or city.country_code == "NZ":
            continue
        median = tsdb.query(Query(
            "latency", "total_ms", "median",
            tag_filters={"dst_city": [dst_city], "src_country": ["NZ"]},
        )).scalar()
        count = tsdb.query(Query(
            "latency", "total_ms", "count",
            tag_filters={"dst_city": [dst_city], "src_country": ["NZ"]},
        )).scalar()
        external = tsdb.query(Query(
            "latency", "external_ms", "median",
            tag_filters={"dst_city": [dst_city], "src_country": ["NZ"]},
        )).scalar()
        if median is None or count is None or count < 5:
            continue
        floor = rtt_floor_ms(tap.lat, tap.lon, city.lat, city.lon)
        rows.append((dst_city, int(count), median, floor,
                     median - floor, external / median))

    # Rank by absolute slack over the physical floor: the paths where
    # better routing/peering buys the most.
    rows.sort(key=lambda row: row[4], reverse=True)
    for dst, conns, median, floor, slack, ext_share in rows:
        print(f"{dst:<16} {conns:>6} {median:>10.1f} {floor:>9.1f} "
              f"{slack:>9.1f} {ext_share:>8.0%}")

    if rows:
        worst = rows[0]
        print(f"\nBiggest planning opportunity: {worst[0]} — measured median "
              f"{worst[2]:.0f} ms vs {worst[3]:.0f} ms fibre floor "
              f"({worst[4]:.0f} ms of routing/queueing slack).")

    # The standard dashboard over the same database.
    print("\nRuru dashboard, latest mean latency per country pair (ms):")
    dashboard = build_ruru_dashboard(interval_ns=30 * NS_PER_S,
                                     src_country="NZ")
    for panel in dashboard.render(tsdb):
        if panel.title.startswith("mean"):
            for label, value in sorted(panel.latest().items()):
                print(f"  {label:<44} {value:7.1f}")


if __name__ == "__main__":
    main()
