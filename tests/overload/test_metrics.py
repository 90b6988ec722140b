"""The overload metric surface through the shared registry."""

import pytest

from repro.scenarios.runner import Episode
from tests.conftest import cli_spec


@pytest.fixture(scope="module")
def snapshot():
    stack = Episode(
        cli_spec(
            "chaos", "--profile", "clean", "--seed", 3, "--duration", 3,
            "--rate", 20, "--overload",
        )
    ).run().stack
    # Wedge some shed into the ledger so labelled children exist.
    stack.overload.record_shed("payload", "nic")
    return stack.telemetry.registry.snapshot()


def value(snapshot, name, **labels):
    for sample in snapshot[name]["samples"]:
        if all(sample["labels"].get(k) == v for k, v in labels.items()):
            return sample["value"]
    raise AssertionError(f"no sample of {name} with labels {labels}")


class TestOverloadMetricSurface:
    def test_ladder_gauges_exported(self, snapshot):
        assert "ruru_overload_level" in snapshot
        assert "ruru_overload_level_max" in snapshot
        assert "ruru_overload_transitions_total" in snapshot
        assert value(snapshot, "ruru_overload_level") == 0.0

    def test_shed_counter_labelled_by_class_and_stage(self, snapshot):
        assert value(
            snapshot, "ruru_shed_total", **{"class": "payload", "stage": "nic"}
        ) == 1

    def test_offered_counts_every_class(self, snapshot):
        offered = {
            sample["labels"]["class"]: sample["value"]
            for sample in snapshot["ruru_overload_offered_total"]["samples"]
        }
        assert set(offered) == {"handshake", "payload", "other"}
        assert offered["handshake"] > 0

    def test_pressure_gauge_covers_watched_stages(self, snapshot):
        stages = {
            sample["labels"]["stage"]
            for sample in snapshot["ruru_overload_pressure"]["samples"]
        }
        assert {"nic", "mq"} <= stages

    def test_ring_gauges_exported(self, snapshot):
        assert value(snapshot, "ruru_rx_ring_high_watermark", queue="0") >= 0
        assert value(snapshot, "ruru_rx_ring_capacity", queue="0") > 0
        assert "ruru_rx_ring_drops_total" in snapshot
        assert "ruru_rx_ring_displaced_total" in snapshot

    def test_peerless_drop_counter_exported(self, snapshot):
        assert value(snapshot, "ruru_mq_peerless_dropped_total") == 0
        assert "ruru_mq_peerless_buffered_total" in snapshot

    def test_mq_gate_counter_exported(self, snapshot):
        assert value(snapshot, "ruru_overload_mq_offered_total") > 0
