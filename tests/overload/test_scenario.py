"""The ddos-ramp scenario: overload engages, handshakes survive."""

import pytest

from repro.scenarios import run_scenario
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import ScenarioSpec


@pytest.fixture(scope="module")
def ramp_result():
    return run_scenario(get_scenario("ddos-ramp"))


class TestDdosRampScenario:
    def test_all_gates_pass(self, ramp_result):
        assert ramp_result.ok, ramp_result.render()
        names = {check.name for check in ramp_result.checks}
        assert {
            "survived",
            "ledger-conserves",
            "packet-ledger-conserves",
            "overload-ledger-conserves",
            "handshake-shed-bounded",
            "payload-shed-engaged",
        } <= names

    def test_ladder_engaged_under_the_ramp(self, ramp_result):
        assert ramp_result.metric("overload.level_max") >= 2
        assert ramp_result.metric("overload.transitions") >= 2
        assert ramp_result.metric("overload.shed.payload") > 0

    def test_handshakes_kept_flowing(self, ramp_result):
        # The point of the ladder: RTT measurement stays alive while
        # payload is shed — handshake loss bounded, detectors still fed.
        shed = ramp_result.metric("overload.shed.handshake")
        offered = ramp_result.metric("overload.offered.handshake")
        assert offered > 0
        assert shed / offered <= 0.01
        assert ramp_result.metric("events.latency-spike") >= 1

    def test_extended_ledger_balances(self, ramp_result):
        assert ramp_result.metric("oledger.balance") == 0
        assert ramp_result.metric("oledger.ingested") > 0

    def test_transitions_recorded_in_archive(self, ramp_result):
        transitions = ramp_result.resultset.meta["overload_transitions"]
        assert transitions
        assert any("step-up" in text for text in transitions)
        assert ramp_result.metric("overload.level_max") >= 2

    def test_render_mentions_overload(self, ramp_result):
        assert "overload" in ramp_result.render()


class TestSpecRoundTrip:
    def test_overload_section_round_trips(self):
        spec = get_scenario("ddos-ramp")
        assert "overload" in spec.stack.tiers
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.overload == spec.overload
        assert clone.stack.queue_capacity == spec.stack.queue_capacity
        assert clone.stack.feed_window_ms == spec.stack.feed_window_ms
        assert clone.to_dict() == spec.to_dict()

    def test_disabled_overload_adds_no_checks(self):
        spec = get_scenario("auckland-baseline")
        assert "overload" not in spec.stack.tiers
        result = run_scenario(spec)
        names = {check.name for check in result.checks}
        assert "overload-ledger-conserves" not in names
        assert result.metric("overload.level_max") is None
