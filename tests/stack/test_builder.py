"""The composition root: presets, derived traversals, validation."""

import json

import pytest

from repro.durability.recovery import recover_runtime
from repro.faults.crashpoints import CRASH_POINTS
from repro.scenarios.runner import build_scenario_generator
from repro.scenarios.spec import ScenarioSpec, TrafficSpec
from repro.stack import StackBuilder, build_live_stack, build_measure_stack
from tests.conftest import cli_stack
from tests.durability.test_drain import EXPECTED_STAGES


class TestPresets:
    def test_measure_is_the_fast_path_only(self):
        stack = build_measure_stack(queues=2)
        assert stack.graph.names() == ["nic", "workers"]
        assert stack.service is None
        assert stack.injector is None

    def test_live_has_the_full_dataflow_and_no_fault_machinery(self):
        stack = build_live_stack(queues=2, frontend_hwm=100)
        assert stack.graph.names() == ["nic", "workers", "mq", "analytics", "frontend"]
        # The analytics tier carries its resilience layer in every preset;
        # the fault machinery is the faults tier's alone.
        assert stack.resilience is not None
        assert stack.service.resilience is stack.resilience
        assert stack.injector is None
        assert stack.supervisor is None

    def test_chaos_adds_injector_resilience_supervisor(self):
        stack = cli_stack("chaos", "--profile", "lossy-mq", "--seed", 3, "--duration", 0.5, "--rate", 20)
        assert stack.graph.names() == [
            "nic", "workers", "mq", "analytics", "frontend", "telemetry",
        ]
        assert stack.injector is not None
        assert stack.resilience is not None
        assert stack.supervisor is not None
        assert stack.profile.name == "lossy-mq"

    def test_durable_closes_the_graph(self, tmp_path):
        stack = cli_stack("live", "--state-dir", tmp_path, "--duration", 0.5, "--rate", 20)
        assert stack.graph.names() == [
            "nic", "workers", "mq", "analytics", "anomaly", "topk",
            "frontend", "telemetry", "tsdb", "checkpoint",
        ]
        assert stack.checkpointer is not None
        assert stack.wal is not None


class TestDerivedBehaviours:
    def test_drain_order_is_derived_from_the_graph(self, tmp_path):
        stack = cli_stack("live", "--state-dir", tmp_path, "--duration", 0.5, "--rate", 20)
        report = stack.drain()
        assert report.stages == EXPECTED_STAGES
        assert report.final_checkpoint is not None

    def test_checkpoint_payload_enumerates_every_stateful_stage(self, tmp_path):
        stack = cli_stack("live", "--state-dir", tmp_path, "--duration", 0.5, "--rate", 20)
        state = stack.capture_state()
        assert set(state) == {
            "format", "meta", "pipeline", "service", "anomaly", "topk",
            "frontend", "tsdb_meta",
        }

    def test_fault_points_cover_every_stage_owned_crash_point(self, tmp_path):
        stack = cli_stack("live", "--state-dir", tmp_path, "--duration", 0.5, "--rate", 20)
        protocol_only = {"drain.mid"}
        assert set(stack.fault_points()) == set(CRASH_POINTS) - protocol_only

    def test_load_state_rejects_unknown_format(self, tmp_path):
        stack = cli_stack("live", "--state-dir", tmp_path, "--duration", 0.5, "--rate", 20)
        with pytest.raises(ValueError, match="unsupported state format"):
            stack.load_state({"format": 99, "meta": {"queues": 2}})

    def test_load_state_rejects_queue_mismatch(self, tmp_path):
        stack = cli_stack("live", "--state-dir", tmp_path, "--duration", 0.5, "--rate", 20, "--queues", 2)
        state = stack.capture_state()
        state["meta"]["queues"] = 4
        with pytest.raises(ValueError, match="built with 4 queues"):
            stack.load_state(state)

    def test_telemetry_stage_rides_the_graph(self):
        stack = cli_stack("chaos", "--profile", "clean", "--duration", 0.5, "--rate", 20)
        assert stack.graph.get("telemetry").telemetry is stack.telemetry is not None

    def test_process_batch_runs_the_whole_graph(self, tmp_path):
        stack = cli_stack("live", "--state-dir", tmp_path, "--duration", 1, "--rate", 30)
        batch = list(stack.packet_stream())
        stack.process_batch(batch)
        assert stack.pipeline.stats.packets_offered == len(batch)
        assert stack.service.processed > 0
        assert stack.frontend_received == stack.service.processed


class TestStatus:
    """``status()`` is on the handle every preset has; a block appears
    only for a tier the preset assembled."""

    def _blocks(self, stack):
        # A preset built with a scenario feeds itself; the others idle.
        stack.run(None if stack.generator is not None else [])
        status = stack.status()
        assert json.loads(json.dumps(status)) == status
        assert status["pipeline"]["measurements"] == (
            stack.pipeline.stats_snapshot().tracker.measurements
        )
        assert len(status["pipeline"]["flow_table_occupancy"]) == stack.queues
        return status

    def test_measure_has_the_pipeline_block_only(self):
        assert set(self._blocks(build_measure_stack(queues=2))) == {"pipeline"}

    def test_live_without_a_frontend_has_no_frontend_block(self):
        status = self._blocks(build_live_stack(queues=2))
        assert set(status) == {"pipeline", "analytics", "tsdb"}

    def test_chaos_and_durable_have_every_block(self, tmp_path):
        for stack in (
            cli_stack("chaos", "--profile", "lossy-mq", "--seed", 3, "--duration", 1, "--rate", 30),
            cli_stack("live", "--state-dir", tmp_path, "--duration", 1, "--rate", 30),
        ):
            status = self._blocks(stack)
            assert set(status) == {"pipeline", "analytics", "tsdb", "frontend"}
            assert status["analytics"]["enriched"] > 0
            assert status["analytics"]["input_queue_depth"] == 0
            assert status["tsdb"]["points"] == stack.tsdb.total_points() > 0
            assert "latency" in status["tsdb"]["series"]
            assert status["frontend"]["received"] == stack.frontend_received
            assert status["frontend"]["queue_depth"] == 0


class TestBuilderValidation:
    def test_unknown_anomaly_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown anomaly mode"):
            StackBuilder().anomaly("sideways")

    def test_the_inline_anomaly_wiring_is_gone(self):
        with pytest.raises(ValueError, match="unknown anomaly mode"):
            StackBuilder().anomaly("inline")

    def test_anomaly_detectors_bring_their_frontend_stream(self):
        stack = build_live_stack(queues=2, anomaly=True)
        assert stack.graph.names() == [
            "nic", "workers", "mq", "analytics", "anomaly", "frontend",
        ]
        assert stack.anomaly.observe_measurement in (
            stack.graph.get("frontend").observers
        )
        assert stack.service.filters == []

    def test_durable_requires_analytics(self, tmp_path):
        builder = StackBuilder().durable(str(tmp_path))
        with pytest.raises(ValueError, match="requires analytics"):
            builder.build()

    def test_unknown_fault_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            StackBuilder().faults("does-not-exist")

    @pytest.mark.parametrize("tier", ["anomaly", "topk", "frontend"])
    def test_a_rider_without_analytics_is_refused(self, tier):
        builder = getattr(StackBuilder(), tier)()
        with pytest.raises(ValueError, match=f"^{tier} requires analytics$"):
            builder.build()


def _scenario(seed=5):
    traffic = ScenarioSpec(name="builder", traffic=TrafficSpec(duration_s=3, rate=30))
    return StackBuilder().generator(build_scenario_generator(traffic, seed)).queues(2)


class TestTiersCompose:
    """Each builder call assembles its own tier, whatever else is asked."""

    def _durable(self, state_dir, retention_ns=None):
        return (
            _scenario()
            .analytics()
            .durable(str(state_dir), retention_ns=retention_ns)
            .build()
        )

    def test_durable_without_faults_runs_and_recovers(self, tmp_path):
        stack = self._durable(tmp_path)
        report = stack.run()
        assert report.ok and report.final_checkpoint is not None
        assert (tmp_path / "tsdb.wal").exists() and stack.wal.appends > 0
        lines = sorted(stack.tsdb.dump_lines())
        assert lines
        stack.wal.close()
        recovered = self._durable(tmp_path)
        recovery = recover_runtime(recovered)
        assert recovery.ok and recovery.clean_shutdown
        assert sorted(recovered.tsdb.dump_lines()) == lines
        recovered.wal.close()

    def test_durable_without_faults_applies_retention(self, tmp_path):
        kept = self._durable(tmp_path / "kept")
        aged = self._durable(tmp_path / "aged", retention_ns=500_000_000)
        for stack in (kept, aged):
            assert stack.run().ok
            stack.wal.close()
        assert [p.duration_ns for p in aged.tsdb.retention_policies] == [500_000_000]
        assert kept.tsdb.retention_policies == []
        assert 0 < aged.tsdb.total_points() < kept.tsdb.total_points()

    def test_faults_without_analytics_drains_with_restarts_counted(self):
        stack = _scenario().faults("crashy-workers", seed=5).build()
        report = stack.run()
        assert report.ok and stack.service is None
        restarts = stack.supervisor.total_restarts
        assert restarts == stack.injector.count("worker", "crash") > 0
        stats = report.stats
        assert stats.packets_processed == stats.packets_queued > 0

    def test_topk_alone_subscribes_the_feed_it_counts(self):
        stack = _scenario().analytics().topk(10).build()
        stack.run()
        assert stack.graph.names() == [
            "nic", "workers", "mq", "analytics", "topk", "frontend",
        ]
        assert stack.topk.total == stack.frontend_received == stack.service.processed
        assert stack.topk.total > 0


class TestObservability:
    def test_profiler_derives_from_the_graph(self):
        """A Telemetry is enough: the graph times every assembled
        stage — no per-stage wiring, nothing to enable."""
        stack = cli_stack("chaos", "--profile", "clean", "--duration", 0.5, "--rate", 20)
        telemetry = stack.telemetry
        stack.process_batch(list(stack.packet_stream()))
        profiled = set(telemetry.profiler.stages)
        assert profiled == {stage.name for stage in stack.graph.stages}
        assert all(p.calls > 0 for p in telemetry.profiler.stages.values())

    def test_no_profiler_means_untimed_graph(self):
        """No Telemetry, no timing: the graph walks its stages bare."""
        stack = build_live_stack(queues=2, frontend_hwm=100)
        assert stack.telemetry is None
        assert stack.graph._profiler is None

    def test_run_times_stages_on_three_planes(self):
        """The one timing point under the one driver: wall time where
        work happens, virtual time where the clock is advanced."""
        stack = cli_stack("chaos", "--profile", "clean", "--duration", 2, "--rate", 30)
        telemetry = stack.telemetry
        stack.run()
        stages = telemetry.profiler.stages
        assert stages["nic"].wall_ns > 0
        assert stages["workers"].wall_ns > 0
        # Only pipeline.offer advances the virtual clock, and it runs
        # inside the nic stage ...
        assert [n for n, p in stages.items() if p.virtual_ns] == ["nic"]
        # ... so the stages' virtual time is the whole of it.
        assert (
            sum(p.virtual_ns for p in stages.values())
            == stack.pipeline.clock.now_ns
        )
        rows = telemetry.registry.snapshot()["ruru_stage_packets_per_s"]["samples"]
        assert {row["labels"]["stage"] for row in rows} == set(stages)

    def test_drain_evaluates_slos(self):
        stack = cli_stack("chaos", "--profile", "clean", "--duration", 0.5, "--rate", 20)
        stack.process_batch(list(stack.packet_stream()))
        stack.drain()
        assert stack.slo_results
        by_name = {r.slo.name: r for r in stack.slo_results}
        assert by_name["nic-drop-rate"].status == "ok"
        # Graph timing is always on, so the throughput objective binds;
        # its verdict is the host's wall clock, not this test's business.
        assert by_name["worker-throughput"].observed > 0
        assert all(
            r.ok for r in stack.slo_results if r.slo.name != "worker-throughput"
        )

    def test_drain_without_telemetry_skips_slos(self):
        stack = build_measure_stack(queues=2)
        stack.drain()
        assert stack.slo_results == []

    def test_stack_can_override_slos(self):
        from repro.obs.slo import Slo

        stack = cli_stack("chaos", "--profile", "clean", "--duration", 0.5, "--rate", 20)
        stack.slos = [
            Slo("impossible", "", ("sum", "ruru_packets_offered_total"),
                bound=10**15, kind="min")
        ]
        stack.process_batch(list(stack.packet_stream()))
        stack.drain()
        (result,) = stack.slo_results
        assert result.status == "violated"
