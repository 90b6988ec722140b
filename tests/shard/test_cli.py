"""``--shards`` on the CLI: what reaches the sharded runtime, and what
is refused instead of ignored."""

import pytest

import repro.stack
from repro.cli import main

WORKLOAD = ["--duration", "1", "--rate", "20", "--shards", "2"]


@pytest.fixture
def built(monkeypatch):
    """Every ``build_sharded_runtime`` call: its kwargs, and the kills
    scheduled on the runtime it returned."""
    calls = []
    build = repro.stack.build_sharded_runtime

    def spy(**kwargs):
        runtime = build(**kwargs)
        kills = []
        schedule_kill = runtime.schedule_kill

        def record_kill(shard_id, at_seq):
            kills.append((shard_id, at_seq))
            schedule_kill(shard_id, at_seq)

        runtime.schedule_kill = record_kill
        calls.append((kwargs, kills))
        return runtime

    monkeypatch.setattr(repro.stack, "build_sharded_runtime", spy)
    return calls


class TestLiveShards:
    def test_fsync_wal_reaches_the_shard_stores(self, built, tmp_path, capsys):
        argv = ["live", *WORKLOAD, "--state-dir", str(tmp_path)]
        assert main([*argv, "--fsync-wal"]) == 0
        assert main(argv) == 0
        assert [kwargs["fsync"] for kwargs, _ in built] == [True, False]
        assert "[OK]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [["--overload"], ["--retention", "5"], ["--profile", "lossy-mq"]],
    )
    def test_flags_the_shard_preset_cannot_honour_are_usage_errors(
        self, flags, built, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(["live", *WORKLOAD, "--state-dir", str(tmp_path), *flags])
        assert exit_info.value.code == 2
        assert f"--shards does not take {flags[0]}" in capsys.readouterr().err
        assert built == []

    def test_the_default_profile_spelled_out_is_accepted(
        self, built, tmp_path, capsys
    ):
        argv = ["live", *WORKLOAD, "--state-dir", str(tmp_path)]
        assert main([*argv, "--profile", "clean"]) == 0


class TestChaosShards:
    def test_overload_and_a_profile_are_usage_errors(self, built, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", *WORKLOAD, "--overload", "--profile", "monsoon"])
        assert exit_info.value.code == 2
        assert "--shards does not take --profile" in capsys.readouterr().err
        assert built == []

    @pytest.mark.parametrize("given, at_seq", [(None, 6), ("0", 0), ("2", 2)])
    def test_kill_at_batch_zero_is_zero(self, given, at_seq, built, capsys):
        argv = ["chaos", *WORKLOAD, "--kill-shard", "1"]
        if given is not None:
            argv += ["--kill-at-batch", given]
        assert main(argv) == 0
        assert built[0][1] == [(1, at_seq)]
