"""Stage profiler: deterministic accounting, sampling, exports."""

import sys

import pytest

from repro.obs import Telemetry
from repro.obs.prof import DEFAULT_CALL_SAMPLE, StageProfile, StageProfiler


class FakeClock:
    """Advances a fixed step per read, so accounting is exact."""

    def __init__(self, step_ns=1000):
        self.now = 0
        self.step = step_ns

    def __call__(self):
        self.now += self.step
        return self.now


def make_profiler(sample_every=0):
    return StageProfiler(
        sample_every=sample_every, wall=FakeClock(), cpu=FakeClock(step_ns=10)
    )


class TestStageAccounting:
    def test_timer_accumulates_all_planes(self):
        profiler = make_profiler()
        virtual = iter([100, 350])
        with profiler.stage("workers", items=32, now_fn=lambda: next(virtual)):
            pass
        profile = profiler.stages["workers"]
        assert profile.calls == 1
        assert profile.items == 32
        assert profile.wall_ns == 1000  # one fake-clock step inside the timer
        assert profile.cpu_ns == 10
        assert profile.virtual_ns == 250

    def test_repeat_calls_accumulate(self):
        profiler = make_profiler()
        for _ in range(3):
            with profiler.stage("nic", items=8):
                pass
        profile = profiler.stages["nic"]
        assert profile.calls == 3
        assert profile.items == 24
        assert profile.wall_ns == 3000

    def test_derived_rates(self):
        profile = StageProfile("x")
        profile.wall_ns = 2_000_000_000  # 2 s
        profile.items = 1000
        assert profile.packets_per_s == 500.0
        assert profile.ns_per_packet == 2_000_000.0

    def test_rates_zero_safe(self):
        profile = StageProfile("x")
        assert profile.packets_per_s == 0.0
        assert profile.ns_per_packet == 0.0

    def test_summary_is_json_shaped(self):
        profiler = make_profiler()
        with profiler.stage("nic", items=4):
            pass
        summary = profiler.summary()
        assert set(summary) == {"nic"}
        assert summary["nic"]["calls"] == 1
        assert summary["nic"]["items"] == 4
        assert "ns_per_packet" in summary["nic"]

    def test_total_wall_sums_stages(self):
        profiler = make_profiler()
        with profiler.stage("a"):
            pass
        with profiler.stage("b"):
            pass
        assert profiler.total_wall_ns() == 2000


class TestBatchSampling:
    def test_deterministic_batch_selection(self):
        profiler = make_profiler(sample_every=3)
        sampled = []
        for _ in range(9):
            flag = profiler.batch_begin()
            profiler.batch_end(flag)
            sampled.append(flag)
        assert sampled == [False, False, True] * 3
        assert profiler.batches == 9
        assert profiler.batches_sampled == 3

    def test_zero_disables_sampling(self):
        profiler = make_profiler(sample_every=0)
        for _ in range(5):
            assert profiler.batch_begin() is False
            profiler.batch_end(False)
        assert profiler.batches_sampled == 0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            StageProfiler(sample_every=-1)

    def test_rotation_cycles_target_across_sampled_batches(self):
        profiler = make_profiler(sample_every=1)
        targets = []
        for _ in range(6):
            profiler.batch_begin()
            for name in ("a", "b", "c"):
                with profiler.stage(name):
                    pass
            targets.append(profiler._target_index)
            profiler.batch_end(True)
        # First sampled batch defaults to stage 0 (stage count unknown),
        # then the rotation cycles through the three stages.
        assert targets[0] == 0
        assert targets[1:] == [1, 2, 0, 1, 2]

    def test_hook_removed_after_batch(self):
        profiler = StageProfiler(sample_every=1)
        profiler.batch_begin()
        with profiler.stage("only"):
            pass
        profiler.batch_end(True)
        assert sys.getprofile() is None


def _leaf():
    return sum(range(5))


def _mid():
    return _leaf()


class TestCallAttribution:
    def run_sampled_stage(self, profiler, name="workers", fn=_mid):
        profiler.batch_begin()
        with profiler.stage(name):
            fn()
        profiler.batch_end(True)

    def test_self_time_keyed_by_stage_and_stack(self):
        profiler = StageProfiler(sample_every=1)
        self.run_sampled_stage(profiler)
        flat = ["/".join(key) for key in profiler.call_self_ns]
        assert any("workers" in key and "_mid" in key for key in flat)
        assert any("_mid" in key and "_leaf" in key for key in flat)
        assert all(ns >= 0 for ns in profiler.call_self_ns.values())

    def test_attribution_is_deterministic_across_runs(self):
        keys = []
        for _ in range(2):
            profiler = StageProfiler(sample_every=1)
            self.run_sampled_stage(profiler)
            keys.append(sorted(profiler.call_self_ns))
        assert keys[0] == keys[1]

    def test_unsampled_batches_attribute_nothing(self):
        profiler = StageProfiler(sample_every=0)
        flag = profiler.batch_begin()
        with profiler.stage("workers"):
            _mid()
        profiler.batch_end(flag)
        assert profiler.call_self_ns == {}

    def test_only_target_stage_hooked_per_sampled_batch(self):
        profiler = StageProfiler(sample_every=1)
        # Prime the stage count so the rotation has a modulus.
        profiler.batch_begin()
        for name in ("a", "b"):
            with profiler.stage(name):
                _mid()
        profiler.batch_end(True)
        # Next sampled batch targets index 1 -> only "b" attributes.
        before = {k for k in profiler.call_self_ns if k[0] == "a"}
        profiler.batch_begin()
        for name in ("a", "b"):
            with profiler.stage(name):
                _mid()
        profiler.batch_end(True)
        after = {k for k in profiler.call_self_ns if k[0] == "a"}
        assert after == before
        assert any(k[0] == "b" for k in profiler.call_self_ns)


class TestExports:
    def profiled(self):
        profiler = StageProfiler(sample_every=1)
        profiler.batch_begin()
        with profiler.stage("workers", items=10):
            _mid()
        profiler.batch_end(True)
        return profiler

    def test_collapsed_stage_roots_and_calls(self):
        profiler = self.profiled()
        lines = profiler.collapsed().splitlines()
        assert any(line.startswith("ruru;workers ") for line in lines)
        assert any(";_mid_" in line for line in lines)
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack
            assert int(count) >= 1

    def test_collapsed_frames_never_contain_separators(self):
        profiler = StageProfiler()
        with profiler.stage("weird name;stage"):
            pass
        line = profiler.collapsed().splitlines()[0]
        assert line.count(" ") == 1  # frames joined; single count separator
        assert ";stage" not in line.split(" ")[0].removeprefix("ruru;weird")

    def test_render_mentions_stages_and_hot_calls(self):
        profiler = self.profiled()
        text = profiler.render()
        assert "workers" in text
        assert "hot call sites" in text
        assert "_mid" in text

    def test_bookkeeping_pseudo_stage_filtered_from_exports(self):
        profiler = self.profiled()
        profiler.call_self_ns[("(between stages)", "noise (x.py)")] = 10**9
        assert "(between" not in profiler.collapsed()
        assert "(between" not in profiler.render()


class TestRegistryBinding:
    def test_collect_publishes_per_stage_series(self):
        telemetry = Telemetry()
        profiler = telemetry.enable_profiler()
        with profiler.stage("workers", items=100):
            pass
        snapshot = telemetry.registry.snapshot()
        wall = snapshot["ruru_stage_wall_ns_total"]["samples"]
        assert any(entry["labels"] == {"stage": "workers"} for entry in wall)
        rates = snapshot["ruru_stage_packets_per_s"]["samples"]
        assert any(entry["value"] > 0 for entry in rates)
        assert "ruru_prof_batches_sampled_total" in snapshot

    def test_enable_profiler_is_idempotent(self):
        telemetry = Telemetry()
        first = telemetry.enable_profiler(sample_every=4)
        second = telemetry.enable_profiler(sample_every=8)
        assert first is second is telemetry.profiler
        assert first.sample_every == 8  # it only sets the attribution rate

    def test_default_sample_rate(self):
        assert Telemetry().enable_profiler().sample_every == DEFAULT_CALL_SAMPLE
