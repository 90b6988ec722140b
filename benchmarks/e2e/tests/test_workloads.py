"""Workload determinism, the drift guard, and every workload end to end
at 1/50 scale (a function argument: the command line has no such knob)."""

import pytest

from benchmarks.e2e import bench as e2e
from benchmarks.e2e import workloads
from benchmarks.e2e.cli import load_spec
from benchmarks.e2e.layers import per_layer
from benchmarks.e2e.oracle import Oracle
from benchmarks.e2e.workloads import WORKLOADS, build_trace

SMALL = 0.02


class TestDeterminism:
    def test_same_seed_same_digest(self):
        workload = WORKLOADS["flood-live"]
        assert (
            build_trace(workload, 17, SMALL).digest()
            == build_trace(workload, 17, SMALL).digest()
        )

    def test_other_seed_other_digest(self):
        workload = WORKLOADS["tapmix-live"]
        assert (
            build_trace(workload, 17, SMALL).digest()
            != build_trace(workload, 18, SMALL).digest()
        )

    def test_drift_guard(self, monkeypatch):
        workload = WORKLOADS["handshake-durable"]
        workloads.check_drift(workload, 18, workloads.SCALE, "anything")  # unpinned seed
        monkeypatch.setitem(workloads.PINNED_DIGESTS, workload.name, "0" * 64)
        with pytest.raises(workloads.WorkloadDrift, match="not comparable"):
            workloads.check_drift(workload, 17, workloads.SCALE, "1" * 64)

    def test_paced_oracle_drops_flows_behind_the_cut(self):
        whole = Oracle(build_trace(WORKLOADS["tapmix-live"], 18, SMALL))
        half = Oracle(build_trace(WORKLOADS["tapmix-paced"], 18, SMALL))
        assert 0 < half.count < whole.count


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_end_to_end(name):
    bench = e2e.set_up(WORKLOADS[name], seed=18, scale=SMALL, setups=1)
    try:
        repeat = bench.repeat(check_leaks=True)
    finally:
        bench.close()
    assert repeat.failed == 0
    assert repeat.records == repeat.expected == bench.oracle.count > 0
    assert len(repeat.freshness_ns) == repeat.records
    assert min(repeat.freshness_ns.values()) > 0
    assert len(repeat.batch_ns) == len(repeat.batch_cpu_ns) == len(bench.batches)
    assert bool(repeat.lag_ns) == WORKLOADS[name].paced


def test_metric_names_match_the_spec():
    spec = load_spec()
    assert [w["name"] for w in spec["workloads"]] == [
        w.name for w in WORKLOADS.values() if w.gated
    ]
    bench = e2e.set_up(WORKLOADS["handshake-durable"], seed=18, scale=SMALL, setups=1)
    try:
        layer_values = per_layer(bench, seconds=0)
        for _ in range(3):  # enough samples behind p99 at this scale
            bench.repeat()
        values = e2e.end_to_end(bench)
    finally:
        bench.close()
    assert sorted(values) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(layer_values) == sorted(m["name"] for m in spec["per_layer"])
    assert layer_values["loss_ratio"] == 0
    assert layer_values["durability.checkpoint.count"] > 0
