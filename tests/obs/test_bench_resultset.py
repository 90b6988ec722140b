"""Resultset archive: metadata stamping, round-trip, noise-aware diff."""

import json

import pytest

from repro.obs.bench import (
    RESULTSET_SCHEMA,
    Resultset,
    collect_meta,
    compare,
    load_resultset,
    stage_profile_metrics,
)
from repro.obs.prof import StageProfiler


def make_resultset(value=100.0, platform_name="linux-a", **entry):
    rs = Resultset("bench", meta={"git_rev": "abc", "platform": platform_name})
    rs.record("pipeline.packets_per_s", value, unit="packets/s", **entry)
    return rs


class TestMeta:
    def test_collect_meta_stamps_environment(self, monkeypatch):
        monkeypatch.setenv("RURU_GIT_REV", "deadbeef")
        meta = collect_meta(seed=17, config={"rate": 60})
        assert meta["git_rev"] == "deadbeef"
        assert meta["seed"] == 17
        assert meta["config"] == {"rate": 60}
        assert meta["platform"]
        assert meta["python"]

    def test_git_rev_falls_back_to_repo(self, monkeypatch):
        monkeypatch.delenv("RURU_GIT_REV", raising=False)
        rev = collect_meta()["git_rev"]
        # Either a real rev (in a checkout) or the explicit sentinel.
        assert rev == "unknown" or len(rev) == 40


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        rs = make_resultset(noise=0.2)
        rs.stage_profile = {"nic": {"wall_ns": 10}}
        path = rs.write(str(tmp_path / "deep" / "out.json"))
        loaded = load_resultset(path)
        assert loaded.name == "bench"
        assert loaded.meta["git_rev"] == "abc"
        assert loaded.metrics["pipeline.packets_per_s"]["noise"] == 0.2
        assert loaded.stage_profile == {"nic": {"wall_ns": 10}}

    def test_schema_is_stamped(self, tmp_path):
        path = make_resultset().write(str(tmp_path / "out.json"))
        with open(path) as handle:
            assert json.load(handle)["schema"] == RESULTSET_SCHEMA

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError):
            Resultset.from_dict({"schema": 999, "name": "x"})

    def test_rerecording_overwrites(self):
        rs = make_resultset(value=1.0)
        rs.record("pipeline.packets_per_s", 2.0)
        assert rs.metrics["pipeline.packets_per_s"]["value"] == 2.0


class TestStageProfileMetrics:
    def summary(self):
        return {
            "workers": {"wall_ns": 900_000, "ns_per_packet": 9000.0},
            "mq": {"wall_ns": 100, "ns_per_packet": 10.0},
            "idle": {"wall_ns": 99_900, "ns_per_packet": 0.0},
        }

    def test_cost_and_share_per_stage(self):
        metrics = stage_profile_metrics(self.summary())
        assert metrics["stage.workers.ns_per_packet"]["value"] == 9000.0
        assert not metrics["stage.workers.ns_per_packet"]["higher_is_better"]
        share = metrics["stage.workers.wall_share"]
        assert share["portable"] is True
        assert share["value"] == pytest.approx(0.9, abs=0.001)
        # Zero-cost stages get a share but no cost metric.
        assert "stage.idle.ns_per_packet" not in metrics
        assert "stage.idle.wall_share" in metrics

    def test_noise_floors(self):
        metrics = stage_profile_metrics(self.summary())
        # Sub-100ns cost: timer granularity, wide noise.
        assert metrics["stage.mq.ns_per_packet"]["noise"] == 0.5
        assert "noise" not in metrics["stage.workers.ns_per_packet"]
        # Tiny share: the ±2pp absolute floor dominates relative noise.
        assert metrics["stage.mq.wall_share"]["noise"] > 1.0
        assert metrics["stage.workers.wall_share"]["noise"] < 0.05

    def test_record_stage_profile_attaches_and_flattens(self):
        rs = Resultset("bench", meta={})
        rs.record_stage_profile(self.summary())
        assert rs.stage_profile["workers"]["wall_ns"] == 900_000
        assert "stage.workers.wall_share" in rs.metrics


class TestCompare:
    def test_identical_resultsets_pass(self):
        report = compare(make_resultset(), make_resultset())
        assert report.ok
        assert report.rows[0][4] == "ok"

    def test_small_drift_within_threshold_passes(self):
        report = compare(make_resultset(100), make_resultset(92))
        assert report.ok

    def test_regression_beyond_threshold_fails(self):
        report = compare(make_resultset(100), make_resultset(80))
        assert not report.ok
        assert report.regressions == ["pipeline.packets_per_s"]

    def test_improvement_is_reported_not_failed(self):
        report = compare(make_resultset(100), make_resultset(150))
        assert report.ok
        assert report.improvements == ["pipeline.packets_per_s"]

    def test_lower_is_better_direction(self):
        base = Resultset("b", meta={"platform": "p"})
        base.record("cost", 100, higher_is_better=False)
        worse = Resultset("c", meta={"platform": "p"})
        worse.record("cost", 200, higher_is_better=False)
        assert not compare(base, worse).ok
        assert compare(worse, base).ok  # cheaper is an improvement

    def test_per_metric_noise_widens_tolerance(self):
        base = make_resultset(100, noise=0.5)
        report = compare(base, make_resultset(60))
        assert report.ok  # -40% inside the metric's own 50% noise

    def test_added_and_removed_metrics_are_informational(self):
        base, current = make_resultset(), make_resultset()
        current.record("new.metric", 1.0)
        base.record("old.metric", 1.0)
        report = compare(base, current)
        statuses = {row[0]: row[4] for row in report.rows}
        assert statuses["old.metric"] == "removed"
        assert statuses["new.metric"] == "added"
        assert report.ok

    def test_a_vanished_exact_metric_is_a_regression(self):
        # A fold that stops recording a ledger term must not pass.
        base, current = make_resultset(), make_resultset()
        base.record("ledger.processed", 281, exact=True, portable=True)
        report = compare(base, current)
        statuses = {row[0]: row[4] for row in report.rows}
        assert statuses["ledger.processed"] == "removed"
        assert report.regressions == ["ledger.processed"]
        assert not report.ok
        assert "REGRESSED: 1 regression(s)" in report.render()

    def test_cross_platform_absolute_metric_is_advisory(self):
        base = make_resultset(100, platform_name="linux-a")
        current = make_resultset(50, platform_name="linux-b")
        report = compare(base, current)
        assert report.ok
        assert report.advisories == ["pipeline.packets_per_s"]

    def test_cross_platform_portable_metric_still_gates(self):
        base = Resultset("b", meta={"platform": "linux-a"})
        base.metrics["stage.w.wall_share"] = {
            "value": 0.4, "higher_is_better": False, "portable": True,
        }
        current = Resultset("c", meta={"platform": "linux-b"})
        current.metrics["stage.w.wall_share"] = {
            "value": 0.8, "higher_is_better": False, "portable": True,
        }
        assert not compare(base, current).ok

    def test_zero_baseline_never_divides(self):
        base = make_resultset(0.0)
        assert compare(base, make_resultset(0.0)).ok
        # A jump off a zero baseline of a higher-is-better metric is an
        # improvement, not a regression (and must not divide by zero).
        report = compare(base, make_resultset(5.0))
        assert report.ok
        assert report.improvements == ["pipeline.packets_per_s"]

    def test_render_shows_verdict_and_platforms(self):
        report = compare(make_resultset(100), make_resultset(80))
        text = report.render()
        assert "REGRESSED" in text
        assert "abc" in text
        assert "pipeline.packets_per_s" in text


class TestEndToEnd:
    def profiled_summary(self, slow=1):
        profiler = StageProfiler(sample_every=0, wall=self.clock(200_000 * slow))
        for _ in range(4):
            with profiler.stage("workers", items=100):
                pass
        profiler._wall = self.clock(50_000)
        for _ in range(4):
            with profiler.stage("nic", items=100):
                pass
        return profiler.summary()

    @staticmethod
    def clock(step):
        state = {"now": 0}

        def read():
            state["now"] += step
            return state["now"]

        return read

    def test_detects_injected_stage_slowdown(self):
        base = Resultset("base", meta={"platform": "p"})
        base.record_stage_profile(self.profiled_summary())
        slowed = Resultset("cur", meta={"platform": "p"})
        slowed.record_stage_profile(self.profiled_summary(slow=2))
        report = compare(base, slowed)
        assert not report.ok
        assert "stage.workers.ns_per_packet" in report.regressions

    def test_unchanged_rerun_passes(self):
        base = Resultset("base", meta={"platform": "p"})
        base.record_stage_profile(self.profiled_summary())
        rerun = Resultset("cur", meta={"platform": "p"})
        rerun.record_stage_profile(self.profiled_summary())
        assert compare(base, rerun).ok
