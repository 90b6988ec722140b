"""CLI tests."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.duration == 30.0
        assert args.output == "ruru-trace.pcap"


class TestCommands:
    def test_generate_then_measure(self, tmp_path, capsys):
        trace = str(tmp_path / "t.pcap")
        assert main(["generate", "--duration", "2", "--rate", "20",
                     "--output", trace]) == 0
        output = capsys.readouterr().out
        assert "wrote" in output
        assert main(["measure", "--pcap", trace, "--show", "3"]) == 0
        output = capsys.readouterr().out
        assert "pipeline stats" in output
        assert "measurements" in output

    def test_generate_pcapng_then_measure(self, tmp_path, capsys):
        trace = str(tmp_path / "t.pcapng")
        assert main(["generate", "--duration", "2", "--rate", "20",
                     "--format", "pcapng", "--output", trace]) == 0
        capsys.readouterr()
        assert main(["measure", "--pcap", trace, "--show", "1"]) == 0
        assert "measurements" in capsys.readouterr().out

    def test_measure_generates_when_no_pcap(self, capsys):
        assert main(["measure", "--duration", "2", "--rate", "20"]) == 0
        assert "queue balance" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo", "--duration", "2", "--rate", "20"]) == 0
        output = capsys.readouterr().out
        assert "tsdb points" in output
        assert "map frames" in output
        assert "arc colours" in output

    def test_demo_loses_nothing_past_the_mq_high_water_mark(self, capsys):
        """17,647 measurements against a 10,000-message PULL HWM: every
        one is enriched, because analytics runs while packets arrive."""
        assert main(["demo", "--duration", "30", "--rate", "600"]) == 0
        rows = dict(
            line.split(":", 1)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith(("measurements:", "enriched:"))
        )
        assert int(rows["measurements"]) > 10_000
        assert int(rows["enriched"]) == int(rows["measurements"])

    def test_detect_glitch(self, capsys):
        assert main(["detect", "--duration", "60", "--rate", "30",
                     "--glitch"]) == 0
        output = capsys.readouterr().out
        assert "latency-spike" in output

    def test_detect_flood(self, capsys):
        assert main(["detect", "--duration", "30", "--rate", "20",
                     "--flood"]) == 0
        assert "syn-flood" in capsys.readouterr().out

    def test_detect_clean_traffic_returns_nonzero(self, capsys):
        assert main(["detect", "--duration", "5", "--rate", "20"]) == 1
        assert "no anomalies" in capsys.readouterr().out

    def test_export_then_query(self, tmp_path, capsys):
        lp = str(tmp_path / "m.lp")
        grafana = str(tmp_path / "dash.json")
        assert main(["export", "--duration", "3", "--rate", "20",
                     "--output", lp, "--grafana", grafana]) == 0
        output = capsys.readouterr().out
        assert "wrote" in output and "Grafana" in output
        assert main([
            "query", "--file", lp,
            "SELECT mean(total_ms) FROM latency GROUP BY dst_country",
        ]) == 0
        output = capsys.readouterr().out
        assert "dst_country=" in output

    def test_query_show_statements(self, tmp_path, capsys):
        lp = str(tmp_path / "m.lp")
        main(["export", "--duration", "2", "--rate", "15", "--output", lp])
        capsys.readouterr()
        assert main(["query", "--file", lp, "SHOW MEASUREMENTS"]) == 0
        assert "latency" in capsys.readouterr().out
        assert main([
            "query", "--file", lp,
            "SHOW TAG VALUES FROM latency WITH KEY = direction",
        ]) == 0
        assert "outbound" in capsys.readouterr().out

    def test_query_no_rows(self, tmp_path, capsys):
        lp = tmp_path / "empty.lp"
        lp.write_text("latency total_ms=1.0 0\n")
        assert main([
            "query", "--file", str(lp),
            "SELECT mean(total_ms) FROM nothing",
        ]) == 1
        assert "no rows" in capsys.readouterr().out

    def test_dump(self, capsys):
        assert main(["dump", "--duration", "1", "--rate", "10",
                     "--count", "5"]) == 0
        output = capsys.readouterr().out
        assert output.count("\n") == 5
        assert "Flags [S]" in output

    def test_dump_from_pcap(self, tmp_path, capsys):
        trace = str(tmp_path / "t.pcap")
        main(["generate", "--duration", "1", "--rate", "10",
              "--output", trace])
        capsys.readouterr()
        assert main(["dump", "--pcap", trace, "--count", "3"]) == 0
        assert capsys.readouterr().out.count("\n") == 3

    def test_analyze(self, capsys):
        assert main(["analyze", "--duration", "30", "--rate", "25",
                     "--glitch", "--top", "4"]) == 0
        output = capsys.readouterr().out
        assert "mixture fits" in output
        assert "heatmap" in output

    def test_grafana_export_is_valid_json(self, tmp_path):
        import json

        grafana = tmp_path / "dash.json"
        main(["export", "--duration", "2", "--rate", "10",
              "--output", str(tmp_path / "m.lp"), "--grafana", str(grafana)])
        model = json.loads(grafana.read_text())
        assert model["panels"]


# `ruru detect --glitch --flood` stdout, captured at the commit before
# the inline detector wiring (a service filter) was retired: the
# frontend-stream wiring, now the only one, must reproduce it exactly.
DETECT_GOLDEN = {
    7: """\
[CRITICAL] latency-spike NZ->US @7.3s (19.3s): latency 1189 ms vs baseline 188 ms (z=26.1)
[CRITICAL] syn-flood 20.0.121.0/24 @10.0s (6.0s): 1967 SYN/s toward 20.0.121.0/24, completion 0%
[CRITICAL] latency-spike NZ->SG @19.2s (7.1s): latency 4140 ms vs baseline 130 ms (z=260.8)
[CRITICAL] latency-spike NZ->AU @19.3s (9.6s): latency 4033 ms vs baseline 50 ms (z=38.2)
[CRITICAL] latency-spike US->NZ @19.7s (7.3s): latency 4215 ms vs baseline 183 ms (z=106.1)
[CRITICAL] latency-spike NZ->GB @20.6s (5.7s): latency 4316 ms vs baseline 296 ms (z=87.1)
""",
    11: """\
[CRITICAL] latency-spike NZ->US @5.7s (21.9s): latency 1187 ms vs baseline 206 ms (z=19.8)
[CRITICAL] syn-flood 20.0.149.0/24 @10.0s (6.0s): 1897 SYN/s toward 20.0.149.0/24, completion 0%
[CRITICAL] latency-spike US->NZ @14.4s (12.3s): latency 1253 ms vs baseline 194 ms (z=28.0)
[CRITICAL] latency-spike NZ->GB @19.3s (7.1s): latency 4280 ms vs baseline 294 ms (z=106.4)
[CRITICAL] latency-spike NZ->JP @19.3s (7.2s): latency 4132 ms vs baseline 153 ms (z=33.9)
[CRITICAL] latency-spike NZ->SG @19.3s (6.6s): latency 4175 ms vs baseline 136 ms (z=174.9)
[CRITICAL] latency-spike NZ->AU @19.5s (7.1s): latency 4044 ms vs baseline 41 ms (z=413.3)
""",
}


class TestDetectGolden:
    @pytest.mark.parametrize("seed", sorted(DETECT_GOLDEN))
    def test_detect_stdout_is_unchanged(self, seed, capsys):
        assert main(["detect", "--glitch", "--flood", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == DETECT_GOLDEN[seed]


class TestTelemetry:
    def test_metrics_emits_prometheus_exposition(self, capsys):
        assert main(["metrics", "--duration", "2", "--rate", "20"]) == 0
        output = capsys.readouterr().out
        type_lines = [l for l in output.splitlines() if l.startswith("# TYPE")]
        # The acceptance bar: >= 15 distinct series families, and every
        # TYPE line names a valid metric kind.
        assert len(type_lines) >= 15
        assert all(
            l.split()[-1] in ("counter", "gauge", "histogram") for l in type_lines
        )
        assert "ruru_packets_offered_total" in output
        assert "ruru_tracker_events_total{event=\"syn\"}" in output
        assert "ruru_analytics_enriched_total" in output

    def test_measure_with_telemetry_flag(self, capsys):
        assert main(["measure", "--duration", "2", "--rate", "20",
                     "--telemetry"]) == 0
        output = capsys.readouterr().out
        assert "--- telemetry ---" in output
        assert "self-monitoring exports" in output
        assert "ruru_measurements_total" in output
        assert "packets_processed" in output  # satellite: worker counters surfaced

    def test_export_with_selfmon_dashboard(self, tmp_path, capsys):
        import json

        selfmon = tmp_path / "selfmon.json"
        assert main(["export", "--duration", "2", "--rate", "15", "--telemetry",
                     "--output", str(tmp_path / "m.lp"),
                     "--grafana-selfmon", str(selfmon)]) == 0
        model = json.loads(selfmon.read_text())
        titles = [panel["title"] for panel in model["panels"]]
        assert "NIC drops (imissed)" in titles
        # Self-monitoring series ride along in the line-protocol export.
        lp_text = (tmp_path / "m.lp").read_text()
        assert "ruru_packets_offered_total" in lp_text


class TestChaosCommands:
    CHAOS = ["--duration", "3", "--rate", "25", "--seed", "42"]

    def test_chaos_run_ok(self, capsys):
        assert main(["chaos", "--profile", "lossy-mq", *self.CHAOS]) == 0
        output = capsys.readouterr().out
        assert "verdict: OK" in output
        assert "conservation:" in output
        assert "[OK]" in output

    def test_chaos_metrics_flag_exposes_families(self, capsys):
        assert main(
            ["chaos", "--profile", "lossy-mq", "--metrics", *self.CHAOS]
        ) == 0
        output = capsys.readouterr().out
        for family in (
            "ruru_retry_total",
            "ruru_breaker_state",
            "ruru_dlq_depth",
            "ruru_supervisor_restarts_total",
        ):
            assert family in output, family

    def test_chaos_list_profiles(self, capsys):
        assert main(["chaos", "--list"]) == 0
        output = capsys.readouterr().out
        assert "lossy-mq" in output
        assert "tsdb-brownout" in output

    def test_chaos_list_prints_description_column(self, capsys):
        from repro.faults import PROFILES

        assert main(["chaos", "--list"]) == 0
        output = capsys.readouterr().out
        for name, profile in PROFILES.items():
            assert profile.description in output, name
        # Descriptions align into one column after the longest name.
        width = max(len(name) for name in PROFILES) + 2
        line = next(l for l in output.splitlines() if l.startswith("clean"))
        assert line.index(PROFILES["clean"].description) == width

    def test_chaos_unknown_profile_errors(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            main(["chaos", "--profile", "nope", *self.CHAOS])

    def test_dlq_inspection(self, capsys):
        assert main(["dlq", "--profile", "lossy-mq", *self.CHAOS]) == 0
        output = capsys.readouterr().out
        assert "dead-letter queue:" in output
        assert "mq.decode" in output


class TestDurabilityCommands:
    ARGS = ["--duration", "3", "--rate", "25", "--seed", "42"]

    def test_live_then_recover(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["live", "--state-dir", state, *self.ARGS]) == 0
        output = capsys.readouterr().out
        assert "graceful drain:" in output
        assert "clean checkpoint:" in output
        assert "checkpoints:" in output

        assert main(["recover", "--state-dir", state, *self.ARGS]) == 0
        output = capsys.readouterr().out
        assert "recovery report:" in output
        assert "clean shutdown" in output
        assert "verdict: OK" in output

    def test_a_second_live_refuses_a_used_state_dir(self, tmp_path, capsys):
        """A fresh run on a dir that holds a run would leave the two
        side by side (numbering restarts at 1, so recovery resumed the
        *first* run's higher-numbered checkpoint). It is refused before
        anything is written; ``ruru recover`` still resumes the dir."""
        state = tmp_path / "state"
        assert main(["live", "--state-dir", str(state), *self.ARGS]) == 0
        capsys.readouterr()
        before = {path.name: path.read_bytes() for path in state.iterdir()}
        assert main(
            ["live", "--state-dir", str(state), *self.ARGS, "--seed", "5"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ruru live: error: durable.state_dir ")
        assert "ruru recover" in captured.err
        assert captured.err.count("\n") == 1
        assert {path.name: path.read_bytes() for path in state.iterdir()} == before
        assert main(
            ["recover", "--state-dir", str(state), "--drain", *self.ARGS]
        ) == 0

    def test_recover_empty_dir_cold_starts(self, tmp_path, capsys):
        assert main(
            ["recover", "--state-dir", str(tmp_path / "none"), *self.ARGS]
        ) == 0
        assert "cold start" in capsys.readouterr().out

    def test_recover_drain_leaves_clean_checkpoint(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        assert main(["live", "--state-dir", state, *self.ARGS]) == 0
        capsys.readouterr()
        assert main(
            ["recover", "--state-dir", state, "--drain", *self.ARGS]
        ) == 0
        output = capsys.readouterr().out
        assert "graceful drain:" in output
        assert output.count("verdict: OK") == 2

    def test_recovery_trial(self, tmp_path, capsys):
        assert main([
            "recover", "--state-dir", str(tmp_path / "trial"),
            "--trial", "mq.publish", *self.ARGS,
        ]) == 0
        output = capsys.readouterr().out
        assert "recovery trial:" in output
        assert "crashed: True" in output
        assert "verdict: OK" in output

    def test_trial_faulty_profile(self, tmp_path, capsys):
        assert main([
            "recover", "--state-dir", str(tmp_path / "trial"),
            "--trial", "analytics.ingest", "--profile", "lossy-mq",
            *self.ARGS,
        ]) == 0
        assert "lost_at_crash" in capsys.readouterr().out


class TestProfCommand:
    def test_prof_prints_stage_table(self, capsys):
        assert main(["prof", "--duration", "2", "--rate", "20",
                     "--sample", "4"]) == 0
        output = capsys.readouterr().out
        assert "stage" in output
        assert "workers" in output
        assert "ns/pkt" in output
        assert "--- slo ---" in output

    def test_prof_writes_collapsed_and_json(self, tmp_path, capsys):
        collapsed = str(tmp_path / "stacks.txt")
        profile = str(tmp_path / "prof.json")
        assert main(["prof", "--duration", "2", "--rate", "20",
                     "--sample", "2", "--collapsed", collapsed,
                     "--json", profile]) == 0
        capsys.readouterr()
        with open(collapsed) as handle:
            lines = handle.read().splitlines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack.startswith("ruru;")
            assert int(count) >= 1
        import json as json_mod

        with open(profile) as handle:
            document = json_mod.load(handle)
        assert "workers" in document["stage_profile"]
        assert document["meta"]["git_rev"]
        assert document["batches"] >= document["batches_sampled"]


class TestPerfCommand:
    @staticmethod
    def write_resultset(path, value):
        from repro.obs.bench import Resultset

        rs = Resultset("bench", meta={"git_rev": "test", "platform": "p"})
        rs.record("pipeline.packets_per_s", value, unit="packets/s")
        rs.write(str(path))
        return str(path)

    def test_compare_ok_exits_zero(self, tmp_path, capsys):
        base = self.write_resultset(tmp_path / "base.json", 100.0)
        cur = self.write_resultset(tmp_path / "cur.json", 98.0)
        assert main(["perf", "compare", base, cur]) == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_regression_exits_nonzero(self, tmp_path, capsys):
        base = self.write_resultset(tmp_path / "base.json", 100.0)
        cur = self.write_resultset(tmp_path / "cur.json", 50.0)
        assert main(["perf", "compare", base, cur]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_compare_threshold_flag(self, tmp_path, capsys):
        base = self.write_resultset(tmp_path / "base.json", 100.0)
        cur = self.write_resultset(tmp_path / "cur.json", 50.0)
        assert main(["perf", "compare", base, cur,
                     "--threshold", "0.6"]) == 0

    def test_show_prints_metrics(self, tmp_path, capsys):
        path = self.write_resultset(tmp_path / "rs.json", 123.0)
        assert main(["perf", "show", path]) == 0
        output = capsys.readouterr().out
        assert "pipeline.packets_per_s" in output
        assert "123" in output


class TestSloGate:
    def test_metrics_prints_slo_section(self, capsys):
        assert main(["metrics", "--duration", "2", "--rate", "20"]) == 0
        output = capsys.readouterr().out
        assert "--- slo ---" in output
        assert "nic-drop-rate: ok" in output

    def test_slo_gate_passes_clean_run(self, capsys):
        assert main(["metrics", "--duration", "2", "--rate", "20",
                     "--slo-gate"]) == 0

    def test_slo_gate_fails_on_violated_config(self, tmp_path, capsys):
        import json as json_mod

        config = tmp_path / "slo.json"
        config.write_text(json_mod.dumps({
            "impossible-throughput": {
                "sum": "ruru_packets_offered_total",
                "min": 10**15,
            }
        }))
        assert main(["metrics", "--duration", "2", "--rate", "20",
                     "--slo-gate", "--slo-config", str(config)]) == 1
        assert "impossible-throughput: violated" in capsys.readouterr().out


class TestScenarioCommand:
    TINY = ('name = "cli-tiny"\ndescription = "cli probe"\n'
            '[traffic]\nduration_s = 2.0\nrate = 20.0\n')

    def tiny_path(self, tmp_path):
        path = tmp_path / "cli-tiny.toml"
        path.write_text(self.TINY)
        return str(path)

    def test_list_prints_library_with_descriptions(self, capsys):
        from repro.scenarios import load_library

        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        specs = load_library()
        assert len(specs) >= 6
        width = max(len(name) for name in specs) + 2
        for name, spec in specs.items():
            line = next(l for l in output.splitlines() if l.startswith(name))
            assert line.index(spec.description) == width, name

    def test_show_prints_spec_and_baseline(self, capsys):
        assert main(["scenario", "show", "syn-flood-burst"]) == 0
        output = capsys.readouterr().out
        assert '"syn-flood-burst"' in output
        assert "baseline:" in output and "missing" not in output

    def test_run_spec_file_with_overrides(self, tmp_path, capsys):
        out = str(tmp_path / "rs.json")
        assert main(["scenario", "run", self.tiny_path(tmp_path),
                     "--set", "traffic.rate=30", "--out", out]) == 0
        output = capsys.readouterr().out
        assert "verdict: OK" in output
        from repro.obs.bench import load_resultset

        archived = load_resultset(out)
        assert archived.meta["spec"]["traffic"]["rate"] == 30

    def test_run_failing_expectation_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "never.toml"
        path.write_text(self.TINY.replace('"cli-tiny"', '"never"')
                        + "[expect.syn-flood]\nmin = 5\n")
        assert main(["scenario", "run", str(path)]) == 1
        assert "FAIL] expect.syn-flood" in capsys.readouterr().out

    def test_batch_then_resume(self, tmp_path, capsys, monkeypatch):
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "cli-tiny.toml").write_text(self.TINY)
        monkeypatch.setenv("RURU_SCENARIO_PATH", str(specs))
        out = str(tmp_path / "grid")
        assert main(["scenario", "batch", "cli-tiny",
                     "--seeds", "5,6", "--out", out]) == 0
        assert "2 ran, 0 skipped" in capsys.readouterr().out
        assert main(["scenario", "batch", "cli-tiny",
                     "--seeds", "5,6", "--out", out]) == 0
        assert "0 ran, 2 skipped" in capsys.readouterr().out

    def test_batch_variant_axis(self, tmp_path, capsys, monkeypatch):
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "cli-tiny.toml").write_text(self.TINY)
        monkeypatch.setenv("RURU_SCENARIO_PATH", str(specs))
        assert main(["scenario", "batch", "cli-tiny",
                     "--variant", "hot:traffic.rate=40",
                     "--out", str(tmp_path / "grid")]) == 0
        output = capsys.readouterr().out
        assert "cli-tiny--s7" in output
        assert "cli-tiny--s7--hot" in output

    def test_compare_write_then_gate(self, tmp_path, capsys, monkeypatch):
        specs = tmp_path / "specs"
        specs.mkdir()
        (specs / "cli-tiny.toml").write_text(self.TINY)
        monkeypatch.setenv("RURU_SCENARIO_PATH", str(specs))
        baselines = str(tmp_path / "baselines")
        assert main(["scenario", "compare", "cli-tiny",
                     "--baseline-dir", baselines, "--write"]) == 0
        capsys.readouterr()
        assert main(["scenario", "compare", "cli-tiny",
                     "--baseline-dir", baselines]) == 0
        assert "cli-tiny: ok" in capsys.readouterr().out


REFUSED = [
    (["live", "--shards", "2", "--checkpoint-interval", "2"],
     "does not take durable.checkpoint_interval_s"),
    (["live", "--shards", "2", "--keep-checkpoints", "3"], "does not take durable.keep_checkpoints"),
    (["live", "--shards", "2", "--queues", "4"], "does not take stack.queues"),
    (["chaos", "--shards", "2", "--queues", "4"], "does not take stack.queues"),
    (["chaos", "--shards", "2", "--kill-at-batch", "3"],
     "shard.kill_shard and shard.kill_at_batch come together"),
    (["chaos", "--kill-shard", "1"], "shard.kill_shard must name one of the shards"),
    (["chaos", "--kill-at-batch", "3"], "shard.kill_shard and shard.kill_at_batch come together"),
    (["chaos", "--shard-policy", "reroute-all"], "shard.shards = 0 does not take shard.policy"),
    (["live", "--shard-policy", "reroute-all"], "shard.shards = 0 does not take shard.policy"),
]


#: Inputs a command cannot read: (argv, what the one error line says).
UNREADABLE = [
    (["measure", "--pcap", "empty.pcap"], "too short for a magic number"),
    (["measure", "--pcap", "text.pcap"], "bad pcap magic"),
    (["dump", "--pcap", "empty.pcap"], "too short for a magic number"),
    (["dump", "--pcap", "text.pcap"], "bad pcap magic"),
    (["query", "--file", "good.lp", "SELECT mean(total_ms) FROM"], "unexpected end of query"),
    (["query", "--file", "bad.lp", "SELECT mean(total_ms) FROM latency"], "too many sections"),
]


class TestUnreadableInput:
    """A capture, line-protocol file or query text the command cannot
    read is one stderr line and exit 2, not a traceback."""

    @pytest.mark.parametrize("argv, says", UNREADABLE, ids=[" ".join(a) for a, _ in UNREADABLE])
    def test_one_error_line(self, argv, says, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.pcap").write_bytes(b"")
        (tmp_path / "text.pcap").write_bytes(b"a text file, not a packet capture\n")
        point = "latency,dst_country=NZ total_ms=1.5 1000\n"
        (tmp_path / "good.lp").write_text(point)
        (tmp_path / "bad.lp").write_text(point + "a line that is not a point\n")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"ruru {argv[0]}: error: ") and says in err


class TestNoFlagIsDropped:
    """Each (command, flag) pair that used to be accepted and then
    ignored either changes the run or is refused in one stderr line."""

    SMALL = ["--duration", "1", "--rate", "20"]

    @pytest.mark.parametrize("argv, says", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
    def test_refused(self, argv, says, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # where live's default state dir goes
        assert main([*argv, *self.SMALL]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"ruru {argv[0]}: error: ") and says in err
        assert not any(tmp_path.iterdir())

    def test_chaos_shards_metrics_prints_the_shard_families(self, capsys):
        assert main(["chaos", "--shards", "2", "--metrics", *self.SMALL]) == 0
        out = capsys.readouterr().out
        assert "--- resilience metrics ---" in out
        assert 'ruru_shard_restarts_total{shard="shard-1"} 0' in out

    TRIAL = ["recover", "--trial", "checkpoint.post", "--hit", "1",
             "--duration", "3", "--rate", "20"]

    def _trial(self, tmp_path, *flags):
        state = tmp_path / "state"
        assert main([*self.TRIAL, "--state-dir", str(state), *flags]) == 0
        return sorted(state.glob("*.snap"))

    def test_recover_trial_honours_overload(self, tmp_path, capsys):
        from repro.durability.codec import decode_snapshot

        newest = self._trial(tmp_path, "--overload")[-1]
        assert "overload" in decode_snapshot(newest.read_bytes())

    def test_recover_trial_honours_keep_checkpoints(self, tmp_path, capsys):
        assert len(self._trial(tmp_path)) == 2
        assert len(self._trial(tmp_path, "--keep-checkpoints", "1")) == 1

    def test_recover_trial_honours_fsync_wal(self, tmp_path, capsys, monkeypatch):
        synced = []
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or fsync(fd))
        self._trial(tmp_path)
        drain_only = len(synced)  # the drain's sync fsyncs regardless
        self._trial(tmp_path, "--fsync-wal")
        assert len(synced) - drain_only > drain_only
