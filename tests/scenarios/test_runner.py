"""The scenario runner: determinism, checks, metric stamping."""

import json
import tempfile

import pytest

from repro.scenarios import apply_overrides, run_scenario
from repro.scenarios.runner import Episode
from repro.scenarios.spec import AnomalyWindowSpec, ScenarioSpec, SpecError, TrafficSpec


@pytest.fixture(scope="module")
def small_spec():
    return ScenarioSpec(
        name="runner-small",
        description="tiny clean run",
        seed=5,
        traffic=TrafficSpec(duration_s=4.0, rate=25.0),
    )


@pytest.fixture(scope="module")
def flood_spec():
    return ScenarioSpec(
        name="runner-flood",
        seed=5,
        traffic=TrafficSpec(duration_s=8.0, rate=25.0),
        anomalies=(
            AnomalyWindowSpec(
                kind="syn-flood",
                at_s=3.0,
                duration_s=2.0,
                params={"rate_per_s": 1500.0},
            ),
        ),
        expect={"syn-flood": {"min": 1}},
    )


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, small_spec):
        first = run_scenario(small_spec)
        second = run_scenario(small_spec)
        assert json.dumps(first.resultset.metrics, sort_keys=True) == (
            json.dumps(second.resultset.metrics, sort_keys=True)
        )
        assert first.events == second.events

    def test_seed_changes_the_run(self, small_spec):
        from repro.scenarios.runner import build_scenario_generator

        streams = [
            [(p.timestamp_ns, p.data)
             for p in build_scenario_generator(small_spec, seed).packets()]
            for seed in (5, 6)
        ]
        assert streams[0] != streams[1]

    def test_wall_clock_stays_out_of_metrics(self, small_spec):
        result = run_scenario(small_spec)
        assert "elapsed_s" in str(result.resultset.meta["wall"])
        assert not any("wall" in name for name in result.resultset.metrics)


class TestChecks:
    def test_clean_run_passes_all_gates(self, small_spec):
        result = run_scenario(small_spec)
        assert result.ok
        names = {check.name for check in result.checks}
        assert {"survived", "ledger-conserves"} <= names
        assert result.metric("ledger.balance") == 0.0

    def test_expectation_band_gates(self, flood_spec):
        caught = run_scenario(flood_spec)
        assert caught.ok
        assert caught.metric("events.syn-flood") >= 1
        # The same schedule expected NOT to fire fails its band.
        quiet = ScenarioSpec.from_dict(
            {**flood_spec.to_dict(), "expect": {"syn-flood": {"max": 0}}}
        )
        result = run_scenario(quiet)
        assert not result.ok
        failed = [c for c in result.checks if not c.ok]
        assert failed and failed[0].name == "expect.syn-flood"

    def test_metrics_are_exact_and_portable(self, small_spec):
        result = run_scenario(small_spec)
        ledger = result.resultset.metrics["ledger.ingested"]
        assert ledger.get("exact") is True
        assert ledger.get("portable") is True

    def test_cell_coordinates_stamp_the_archive(self, small_spec):
        result = run_scenario(
            small_spec, cell={"scenario": "runner-small", "seed": 5, "variant": "v"}
        )
        assert result.resultset.meta["cell"]["variant"] == "v"
        assert result.resultset.meta["scenario"] == "runner-small"
        assert result.resultset.meta["spec"]["name"] == "runner-small"

    def test_stage_profile_only_when_requested(self, small_spec):
        assert not run_scenario(small_spec).resultset.stage_profile
        profiled = run_scenario(small_spec, profile_stages=True)
        assert profiled.resultset.stage_profile


class TestTemporaryStateDirs:
    """An episode that makes its own state dir is the one that removes
    it; a named one belongs to whoever named it."""

    @pytest.fixture
    def tmpdir_root(self, tmp_path, monkeypatch):
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    def test_a_durable_run_removes_the_dir_it_made(self, small_spec, tmpdir_root):
        spec = apply_overrides(small_spec, {"stack.tiers": ["analytics", "durable"]})
        assert run_scenario(spec).ok
        assert list(tmpdir_root.iterdir()) == []

    def test_a_named_state_dir_is_kept(self, small_spec, tmp_path, tmpdir_root):
        state = tmp_path / "state"
        spec = apply_overrides(small_spec, {
            "stack.tiers": ["analytics", "durable"], "durable.state_dir": str(state),
        })
        assert run_scenario(spec).ok
        assert (state / "tsdb.wal").stat().st_size > 0
        assert list(tmpdir_root.iterdir()) == []

    def test_a_refused_spec_leaves_no_dir(self, small_spec, tmpdir_root):
        spec = apply_overrides(small_spec, {"stack.tiers": ["durable"]})
        with pytest.raises(SpecError, match="durable requires analytics"):
            Episode(spec)
        assert list(tmpdir_root.iterdir()) == []

    def test_a_sharded_run_makes_no_dir(self, small_spec, tmpdir_root):
        assert run_scenario(apply_overrides(small_spec, {"shard.shards": 2})).ok
        assert list(tmpdir_root.iterdir()) == []


class TestShardDispatch:
    """Specs with shard.shards > 0 run through ShardedRuntime."""

    def test_failover_scenario_recovers_and_balances(self):
        from repro.scenarios import get_scenario, run_scenario

        result = run_scenario(get_scenario("shard-failover"))
        assert result.ok, [c.render() for c in result.checks]
        assert result.metric("shard.restarts") == 1
        assert result.metric("shard.ledger.lost_at_crash") > 0
        assert result.metric("ledger.balance") == 0
        names = {check.name for check in result.checks}
        assert "shard-recovered" in names
        assert "crash-was-charged" in names

    def test_shard_metrics_are_deterministic(self):
        from repro.scenarios import get_scenario, run_scenario

        spec = get_scenario("shard-failover")
        first = run_scenario(spec).resultset.metrics
        second = run_scenario(spec).resultset.metrics
        assert first == second

    def test_both_targets_share_the_prologue_and_epilogue(self, small_spec):
        """One runner: a shard episode is stamped and judged like any
        other — same metadata keys, ``survived`` first, a wall block."""
        in_process = run_scenario(small_spec)
        sharded = run_scenario(
            apply_overrides(small_spec, {"shard.shards": 2})
        )
        assert sharded.ok, [c.render() for c in sharded.checks]
        for result in (in_process, sharded):
            assert result.checks[0].name == "survived"
            assert {"scenario", "spec", "cell", "events", "wall"} <= set(
                result.resultset.meta
            )
        # The same stream reached both targets, packet for packet.
        for name in ("scenario.flows", "scenario.packets_offered"):
            assert sharded.metric(name) == in_process.metric(name), name

    def test_a_sharded_episode_has_books(self, small_spec):
        """``Episode.counts`` of a sharded run is its drain report's
        books — flat, sorted, every one a scenario metric."""
        spec = apply_overrides(
            small_spec,
            {"shard.shards": 2, "shard.kill_shard": 1, "shard.kill_at_batch": 2},
        )
        episode = Episode(spec).run()
        assert episode.error is None
        counts = episode.counts
        assert counts is episode.report.counts and list(counts) == sorted(counts)
        assert counts["ledger.ingested"] == counts["scenario.packets_offered"] > 0
        assert counts["shard.restarts"] == counts["shard.shard-1.restarts"] == 1
        result = run_scenario(spec)
        assert {name: result.metric(name) for name in counts} == counts

    def test_a_sharded_episode_that_raised_still_has_its_offer(self, small_spec):
        episode = Episode(apply_overrides(small_spec, {"shard.shards": 2}))
        offer, fed = episode.runtime.offer, []

        def offer_then_fail(batch):
            if len(fed) == 2:
                raise RuntimeError("boom")
            fed.append(len(batch))
            offer(batch)

        episode.runtime.offer = offer_then_fail
        episode.run()
        assert isinstance(episode.error, RuntimeError) and episode.report is None
        assert episode.counts == {"scenario.packets_offered": sum(fed)}


class TestBadSpecOnTheCli:
    """A SpecError is a usage error: one line on stderr, exit 2 — it
    used to escape ``ruru scenario show`` / ``run`` as a traceback."""

    @pytest.mark.parametrize(
        "argv, names",
        [
            (["show", "no-such-episode"], "unknown scenario 'no-such-episode'"),
            (["run", "no-such-episode"], "unknown scenario 'no-such-episode'"),
            (["run", "shard-failover", "--set", "shard.shards=-1"], "shard.shards"),
            (
                ["run", "shard-failover", "--set", "faults.profile=monsoon"],
                "faults.profile",
            ),
            (["run", "auckland-baseline", "--set", "nonsense"], "key=value"),
        ],
    )
    def test_one_line_on_stderr_and_exit_2(self, argv, names, capsys):
        from repro.cli import main

        assert main(["scenario", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ruru scenario: error: ")
        assert names in captured.err
        assert captured.err.count("\n") == 1
