"""Extension benches: the whole live deployment, mixture fitting,
prefix-preserving pseudonymization, and the text query layer.

These cover the reproduction's beyond-the-poster features; they are
not paper experiments, but they quantify the cost of the pieces a
production deployment would bolt on.
"""

import math
import random

import pytest

from repro.analysis.mixture import fit_lognormal_mixture, select_components
from repro.analytics.pseudonymize import PrefixPreservingAnonymizer
from repro.frontend.map_view import LiveMapView
from repro.frontend.websocket import WebSocketChannel
from repro.stack import build_live_stack
from repro.tsdb.ql import parse_query

NS_PER_S = 1_000_000_000


class TestRuntimeBench:
    def test_bench_co_scheduled_deployment(self, benchmark, workload_10s):
        generator, packets = workload_10s

        def run():
            stack = build_live_stack(
                generator=generator, frontend_hwm=10_000, anomaly=True
            )
            map_view = LiveMapView(channel=WebSocketChannel(name="live-map"))
            stack.graph.get("frontend").observers.append(map_view.observe)
            stats = stack.run(packets).stats
            map_view.finish()
            stack.anomaly.finish(now_ns=stack.now_ns)
            return stats

        stats = benchmark(run)
        assert stats.measurements > 400
        rate = stats.packets_offered / benchmark.stats["mean"]
        print(f"\nExtension: live deployment (rx + analytics + map + "
              f"detectors) {rate:,.0f} pkt/s")


class TestMixtureBench:
    @pytest.fixture(scope="class")
    def samples(self):
        rng = random.Random(1)
        return (
            [rng.lognormvariate(math.log(140.0), 0.1) for _ in range(3000)]
            + [rng.lognormvariate(math.log(500.0), 0.1) for _ in range(1000)]
        )

    def test_bench_em_fit(self, benchmark, samples):
        fit = benchmark(fit_lognormal_mixture, samples, 2, 100, 1e-6, 0)
        assert fit.k == 2
        rate = len(samples) / benchmark.stats["mean"]
        print(f"\nExtension: EM mixture fit {rate:,.0f} samples/s "
              f"({fit.iterations} iterations)")

    def test_bench_model_selection(self, benchmark, samples):
        small = samples[::5]  # every 5th sample keeps both modes
        best = benchmark(select_components, small, 3)
        assert best.k == 2
        print(f"\nExtension: BIC selection over k=1..3 in "
              f"{benchmark.stats['mean'] * 1000:.0f} ms for {len(small)} samples")


class TestPseudonymizerBench:
    def test_bench_anonymization_throughput(self, benchmark):
        rng = random.Random(2)
        # Realistic traffic: many addresses from few subnets, so the
        # per-prefix PRF cache carries most of the load.
        subnets = [rng.getrandbits(24) << 8 for _ in range(64)]
        addresses = [
            subnets[rng.randrange(len(subnets))] | rng.getrandbits(8)
            for _ in range(10_000)
        ]
        anonymizer = PrefixPreservingAnonymizer(key=b"bench-key")

        def run():
            for address in addresses:
                anonymizer.anonymize(address)
            return anonymizer

        benchmark(run)
        rate = len(addresses) / benchmark.stats["mean"]
        print(f"\nExtension: prefix-preserving pseudonymization "
              f"{rate:,.0f} addresses/s (warm cache)")


class TestSketchBench:
    def test_bench_p2_quantile(self, benchmark):
        from repro.analytics.quantile import P2Quantile

        rng = random.Random(3)
        values = [rng.lognormvariate(math.log(150.0), 0.2) for _ in range(20_000)]

        def run():
            sketch = P2Quantile(0.99)
            for value in values:
                sketch.add(value)
            return sketch.value

        estimate = benchmark(run)
        assert estimate is not None
        rate = len(values) / benchmark.stats["mean"]
        print(f"\nExtension: P² p99 sketch {rate:,.0f} samples/s "
              f"(estimate {estimate:.1f} ms, zero samples stored)")

    def test_bench_space_saving(self, benchmark):
        from repro.analytics.topk import SpaceSaving

        rng = random.Random(4)
        keys = [rng.randrange(5000) for _ in range(30_000)]

        def run():
            tracker = SpaceSaving(capacity=256)
            for key in keys:
                tracker.add(key)
            return tracker.top(10)

        top = benchmark(run)
        assert len(top) == 10
        rate = len(keys) / benchmark.stats["mean"]
        print(f"\nExtension: Space-Saving top-K {rate:,.0f} updates/s "
              f"(256 counters over 5000 keys)")


class TestDriftBench:
    def test_bench_path_drift_detector(self, benchmark):
        from repro.analytics.enricher import EnrichedMeasurement
        from repro.anomaly.path_drift import PathDriftDetector

        rng = random.Random(5)

        def make(t_ns, total_ms):
            total_ns = int(total_ms * 1e6)
            return EnrichedMeasurement(
                timestamp_ns=t_ns, internal_ns=total_ns // 10,
                external_ns=total_ns - total_ns // 10,
                src_country="NZ", src_city="Auckland", src_lat=0, src_lon=0,
                src_asn=1, dst_country="US", dst_city="Los Angeles",
                dst_lat=0, dst_lon=0, dst_asn=2,
            )

        measurements = [
            make(i * NS_PER_S, rng.lognormvariate(math.log(150.0), 0.1))
            for i in range(5_000)
        ]

        def run():
            detector = PathDriftDetector(window_ns=300 * NS_PER_S)
            for measurement in measurements:
                detector.observe(measurement)
            return detector

        detector = benchmark(run)
        rate = len(measurements) / benchmark.stats["mean"]
        print(f"\nExtension: path-drift detector {rate:,.0f} measurements/s "
              f"({detector.windows_compared} window comparisons)")


class TestQlBench:
    QUERY = (
        "SELECT mean(total_ms) FROM latency "
        "WHERE src_country = 'NZ' AND time >= 0s AND time < 15m "
        "GROUP BY dst_country, time(10s) FILL(previous)"
    )

    def test_bench_parse(self, benchmark):
        query = benchmark(parse_query, self.QUERY)
        assert query.measurement == "latency"
        rate = 1 / benchmark.stats["mean"]
        print(f"\nExtension: QL parser {rate:,.0f} queries/s")
