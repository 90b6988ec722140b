"""Scenario spec parsing, validation, overrides, and the library."""

import json
import re

import pytest

from repro.scenarios import (
    get_scenario,
    load_library,
    load_scenario_file,
    scenario_names,
)
from repro.scenarios.spec import (
    AnomalyWindowSpec,
    FaultSpec,
    ScenarioSpec,
    SpecError,
    TrafficSpec,
    apply_overrides,
    parse_override_args,
)
from repro.traffic.scenarios import (
    ConnectionSurgeInjector,
    FirewallGlitchInjector,
    SynFloodInjector,
)

TOML_DOC = """
name = "toml-episode"
description = "parsed from TOML"
seed = 11

[traffic]
duration_s = 5.0
rate = 25.0
diurnal = true
start_hour = 18.5

[faults]
profile = "lossy-mq"

[faults.overrides]
mq_drop_rate = 0.10

[[anomalies]]
kind = "syn-flood"
at_s = 2.0
duration_s = 1.5

[expect.syn-flood]
min = 1
"""


class TestParsing:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "episode.toml"
        path.write_text(TOML_DOC)
        spec = load_scenario_file(str(path))
        assert spec.name == "toml-episode"
        assert spec.seed == 11
        assert spec.traffic.diurnal and spec.traffic.start_hour == 18.5
        assert spec.faults.overrides == {"mq_drop_rate": 0.10}
        assert spec.anomalies[0].kind == "syn-flood"
        assert spec.expect == {"syn-flood": {"min": 1}}
        # Document form reparses to an identical spec.
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_document(self, tmp_path):
        path = tmp_path / "episode.json"
        path.write_text(json.dumps({"name": "json-episode", "seed": 3}))
        spec = load_scenario_file(str(path))
        assert spec.name == "json-episode"
        assert spec.seed == 3

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SpecError, match="unknown scenario keys"):
            ScenarioSpec.from_dict({"name": "x", "trafic": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="bad scenario field"):
            ScenarioSpec.from_dict({"name": "x", "traffic": {"ratee": 10}})

    def test_unknown_anomaly_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown anomaly kind"):
            AnomalyWindowSpec(kind="meteor-strike")

    def test_unknown_fault_override_rejected(self):
        with pytest.raises(SpecError, match="not a FaultProfile rate"):
            FaultSpec(profile="clean", overrides={"banana_rate": 0.5})

    def test_unknown_expect_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown event kind"):
            ScenarioSpec(name="x", expect={"quakes": {"min": 1}})

    def test_filesystem_unsafe_name_rejected(self):
        with pytest.raises(SpecError, match="filesystem-safe"):
            ScenarioSpec(name="a/b")

    def test_traffic_bounds(self):
        with pytest.raises(SpecError):
            TrafficSpec(duration_s=0)
        with pytest.raises(SpecError):
            TrafficSpec(start_hour=24.0)


class TestTiers:
    def test_defaults_are_the_runners_chain(self):
        assert ScenarioSpec(name="x").stack.tiers == (
            "analytics", "faults", "telemetry", "anomaly", "frontend",
        )

    def test_every_tier_is_an_entry_of_stack_tiers(self):
        spec = ScenarioSpec.from_dict(
            {"name": "x", "stack": {"tiers": ["topk", "overload", "analytics"]}}
        )
        assert spec.stack.tiers == ("analytics", "overload", "topk")
        for retired in ({"overload": {"enabled": True}}, {"stack": {"topk": 10}}):
            with pytest.raises(SpecError, match="bad scenario field"):
                ScenarioSpec.from_dict({"name": "x", **retired})
        with pytest.raises(SpecError, match="unknown tier"):
            ScenarioSpec.from_dict({"name": "x", "stack": {"tiers": ["cache"]}})

    def test_a_section_without_its_tier_is_an_error(self):
        for document, needs in (
            ({"faults": {"profile": "monsoon"}, "stack": {"tiers": ["analytics"]}}, "faults"),
            ({"durable": {"retention_s": 5}}, "durable"),
            # A shed gate without the controller used to be skipped, and
            # the run's verdict was OK.
            ({"overload": {"payload_shed_min_ratio": 0.99}}, "overload"),
            ({"expect": {"syn-flood": {"min": 1}}, "stack": {"tiers": ["analytics"]}}, "anomaly"),
        ):
            with pytest.raises(SpecError, match=f"needs the {needs} tier"):
                ScenarioSpec.from_dict({"name": "x", **document})

    def test_the_builder_refusal_is_a_spec_error(self):
        from repro.scenarios.runner import Episode

        spec = ScenarioSpec.from_dict({"name": "x", "stack": {"tiers": ["durable"]}})
        with pytest.raises(SpecError, match="durable requires analytics"):
            Episode(spec)


class TestFaultResolution:
    def test_clean_profile_is_inactive(self):
        assert not FaultSpec(profile="clean").active

    def test_overrides_derive_anonymous_profile(self):
        resolved = FaultSpec(
            profile="clean", overrides={"mq_drop_rate": 0.2}
        ).resolve()
        assert resolved.mq_drop_rate == 0.2
        assert resolved.name == "clean+overrides"
        # The registered base profile is untouched.
        assert FaultSpec(profile="clean").resolve().mq_drop_rate == 0.0


class TestInjectorBuilding:
    def test_each_kind_builds_its_injector(self):
        traffic = TrafficSpec(start_hour=2.0)
        glitch = AnomalyWindowSpec(kind="firewall-glitch", at_s=30.0).build_injector(traffic)
        flood = AnomalyWindowSpec(kind="syn-flood", at_s=5.0).build_injector(traffic)
        surge = AnomalyWindowSpec(kind="connection-surge", at_s=5.0).build_injector(traffic)
        assert isinstance(glitch, FirewallGlitchInjector)
        assert isinstance(flood, SynFloodInjector)
        assert isinstance(surge, ConnectionSurgeInjector)
        # Relative windows are absolute on the virtual clock.
        assert flood.flood_start_ns == traffic.start_ns + 5 * 10**9

    def test_windows_from_integer_nanoseconds_land_on_them(self):
        """``ruru detect`` / ``analyze`` place their glitch in integer ns
        (``d // 2`` for ``min(10 s, d // 4)``, ``d * 2 // 3`` for
        ``max(1 s, d // 8)``); through the spec's seconds they must land
        on the same nanosecond for every duration, 0.1 s to 600 s."""
        traffic = TrafficSpec()
        for tenths in range(1, 6001):
            d = int(tenths / 10 * 10**9)
            for at, length in ((d // 2, min(10**10, d // 4)), (d * 2 // 3, max(10**9, d // 8))):
                glitch = AnomalyWindowSpec(
                    kind="firewall-glitch", at_s=at / 10**9, duration_s=length / 10**9
                ).build_injector(traffic)
                assert (glitch.window_start_offset_ns, glitch.window_ns) == (at, length), d

    def test_firewall_glitch_anchors_to_time_of_day(self):
        traffic = TrafficSpec(start_hour=2.5)
        injector = AnomalyWindowSpec(
            kind="firewall-glitch",
            params={"window_start_hour": 3.0},
        ).build_injector(traffic)
        assert injector.window_start_offset_ns == 3 * 3600 * 10**9


class TestOverrides:
    def test_dotted_paths_reach_nested_fields(self):
        spec = ScenarioSpec(name="x")
        out = apply_overrides(
            spec,
            {"traffic.rate": 90, "faults.overrides.mq_drop_rate": 0.1},
        )
        assert out.traffic.rate == 90
        assert out.faults.overrides["mq_drop_rate"] == 0.1
        # The input spec is untouched (frozen + document copy).
        assert spec.traffic.rate == 40.0

    def test_overrides_revalidate(self):
        with pytest.raises(SpecError):
            apply_overrides(ScenarioSpec(name="x"), {"traffic.rate": -1})

    def test_parse_override_args_types_values(self):
        parsed = parse_override_args(
            ["traffic.rate=80", "traffic.diurnal=true", "faults.profile=lossy-mq"]
        )
        assert parsed == {
            "traffic.rate": 80,
            "traffic.diurnal": True,
            "faults.profile": "lossy-mq",
        }

    def test_parse_override_args_rejects_bare_words(self):
        with pytest.raises(SpecError):
            parse_override_args(["traffic.rate"])


class TestLibrary:
    def test_library_ships_the_paper_episodes(self):
        names = scenario_names()
        assert len(names) >= 6
        for expected in (
            "auckland-baseline",
            "firewall-glitch-night",
            "syn-flood-burst",
            "flash-crowd-diurnal-peak",
            "lossy-mq-degraded",
            "elephant-mice-mix",
        ):
            assert expected in names

    def test_every_library_spec_has_a_description(self):
        for name, spec in load_library().items():
            assert spec.description, f"{name} is missing a description"

    def test_extra_dir_shadows_builtin(self, tmp_path):
        shadow = tmp_path / "auckland-baseline.toml"
        shadow.write_text(
            'name = "auckland-baseline"\ndescription = "shadowed"\nseed = 99\n'
        )
        spec = get_scenario("auckland-baseline", extra_dirs=[str(tmp_path)])
        assert spec.seed == 99 and spec.description == "shadowed"

    def test_get_scenario_accepts_file_paths(self, tmp_path):
        path = tmp_path / "direct.toml"
        path.write_text('name = "direct"\n')
        assert get_scenario(str(path)).name == "direct"

    def test_unknown_name_lists_choices(self):
        with pytest.raises(SpecError, match="auckland-baseline"):
            get_scenario("no-such-episode")


class TestShardSpec:
    def test_defaults_to_disabled(self):
        from repro.scenarios.spec import ShardScenarioSpec

        spec = ScenarioSpec(name="x")
        assert spec.shard == ShardScenarioSpec()
        assert not spec.shard.enabled

    def test_round_trips_through_the_document_form(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "s",
                "shard": {"shards": 2, "kill_shard": 1, "kill_at_batch": 6},
            }
        )
        assert spec.shard.enabled
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again.shard == spec.shard

    def test_kill_fields_come_together(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(
                {"name": "s", "shard": {"shards": 2, "kill_shard": 1}}
            )

    def test_a_kill_needs_shards(self):
        """``kill_shard=0`` once passed with ``shards=0`` (the bound was
        ``max(shards, 1)``) and the kill never happened."""
        with pytest.raises(SpecError, match="must name one of the shards"):
            ScenarioSpec.from_dict(
                {"name": "s", "shard": {"kill_shard": 0, "kill_at_batch": 6}}
            )

    def test_shard_settings_need_shards(self):
        with pytest.raises(SpecError, match="shard.shards = 0 does not take shard.policy"):
            ScenarioSpec.from_dict({"name": "s", "shard": {"policy": "reroute-all"}})

    def test_kill_shard_must_exist(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(
                {
                    "name": "s",
                    "shard": {
                        "shards": 2,
                        "kill_shard": 5,
                        "kill_at_batch": 1,
                    },
                }
            )

    def test_unknown_policy_rejected(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(
                {"name": "s", "shard": {"shards": 2, "policy": "yolo"}}
            )

    def test_retired_analytics_placement_rejected(self):
        """The parent/process analytics placements are gone; a spec
        that still asks for one must fail, not be silently ignored."""
        with pytest.raises(SpecError, match="bad scenario field"):
            ScenarioSpec.from_dict(
                {"name": "s", "shard": {"shards": 2, "analytics": "process"}}
            )

    def test_library_ships_the_failover_episode(self):
        spec = get_scenario("shard-failover")
        assert spec.shard.enabled
        assert spec.shard.kill_shard is not None

    @pytest.mark.parametrize(
        "axis, key",
        [
            ({"faults": {"profile": "monsoon"}}, "faults.profile"),
            ({"faults": {"overrides": {"mq_drop_rate": 0.1}}}, "faults.overrides"),
            ({"stack": {"tiers": ["analytics", "overload"]}}, "stack.tiers"),
            ({"expect": {"syn-flood": {"min": 5}}}, "expect.syn-flood"),
        ],
    )
    def test_a_tier_the_shard_target_lacks_is_an_error_not_a_no_op(
        self, axis, key
    ):
        """The shard target injects no faults, sheds by no ladder, has
        no [stack] tiers and runs no detectors: configuring one used to
        print ``faults: monsoon`` / ``verdict: OK`` having done nothing."""
        document = {"name": "s", **axis}
        with pytest.raises(SpecError, match=re.escape(key)):
            ScenarioSpec.from_dict({**document, "shard": {"shards": 2}})
        # Fine in process — and refused again when an override (the
        # grid's config axis) is what turns the shards on.
        in_process = ScenarioSpec.from_dict(document)
        with pytest.raises(SpecError, match=re.escape(key)):
            apply_overrides(in_process, {"shard.shards": 2})

    def test_an_overload_gate_is_refused_on_a_shard_run(self):
        """The shard target has no controller: a gate there was accepted
        and then never checked."""
        with pytest.raises(
            SpecError, match="does not take overload.handshake_shed_max_ratio"
        ):
            ScenarioSpec.from_dict(
                {"name": "s", "shard": {"shards": 2},
                 "overload": {"handshake_shed_max_ratio": 0.01}}
            )

    def test_the_defaults_spelled_out_are_accepted(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "s",
                "shard": {"shards": 2},
                "faults": {"profile": "clean"},
                "overload": {"handshake_shed_max_ratio": None},
                "stack": {"queues": 2},
            }
        )
        assert spec.shard.enabled
