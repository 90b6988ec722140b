"""``--shards`` on the CLI: what reaches the sharded runtime, and what
is refused instead of ignored."""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.cli import command_spec, main
from repro.scenarios import runner

#: More virtual seconds of traffic than any test waits out.
LONG_RUN = ["live", "--shards", "2", "--duration", "4000"]
WORKLOAD = ["--duration", "1", "--rate", "20", "--shards", "2"]


@pytest.fixture
def built(monkeypatch):
    """Every ``build_sharded_runtime`` call: its kwargs, and the kills
    scheduled on the runtime it returned."""
    calls = []
    build = runner.build_sharded_runtime

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

    monkeypatch.setattr(runner, "build_sharded_runtime", spy)
    return calls


def assert_refused(flags, key, built, capsys):
    """``live --shards`` with *flags* exits 2 on one line naming *key*,
    before any runtime is built."""
    assert main(["live", *WORKLOAD, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"ruru live: error: shard.shards > 0 does not take {key}")
    assert err.count("\n") == 1
    assert built == []


class TestLiveShards:
    def test_a_sharded_run_writes_no_state_dir(
        self, built, tmp_path, monkeypatch, capsys
    ):
        """A restart reads the parent's books, so there is nothing to
        write: not the ``ruru-state`` default, not a temporary dir."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["live", *WORKLOAD]) == 0
        assert "[OK]" in capsys.readouterr().out
        assert [kwargs["checkpoint_every_batches"] for kwargs, _ in built] == [8]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flags",
        [["--overload"], ["--retention", "5"], ["--profile", "lossy-mq"]],
    )
    def test_flags_the_shard_preset_cannot_honour_are_usage_errors(
        self, flags, built, capsys
    ):
        key = {
            "--overload": "stack.tiers",
            "--retention": "durable.retention_s",
            "--profile": "faults.profile",
        }[flags[0]]
        assert_refused(flags, key, built, capsys)

    @pytest.mark.parametrize(
        "flags, key",
        [
            (["--state-dir", "st"], "durable.state_dir"),
            (["--fsync-wal"], "durable.fsync_wal"),
        ],
        ids=["--state-dir", "--fsync-wal"],
    )
    def test_a_state_flag_is_a_usage_error(self, flags, key, built, capsys):
        """A shard restarts from its parent's books: there is no shard
        store for a state dir or an fsync to reach."""
        assert_refused(flags, key, built, capsys)

    def test_the_default_profile_spelled_out_is_accepted(self, built, capsys):
        assert main(["live", *WORKLOAD, "--profile", "clean"]) == 0


class TestChaosShards:
    def test_overload_and_a_profile_are_usage_errors(self, built, capsys):
        assert main(["chaos", *WORKLOAD, "--overload", "--profile", "monsoon"]) == 2
        err = capsys.readouterr().err
        assert "does not take faults.profile, stack.tiers" in err
        assert err.count("\n") == 1
        assert built == []

    @pytest.mark.parametrize("given, at_seq", [(None, 6), ("0", 0), ("2", 2)])
    def test_kill_at_batch_zero_is_zero(self, given, at_seq, built, capsys):
        argv = ["chaos", *WORKLOAD, "--kill-shard", "1"]
        if given is not None:
            argv += ["--kill-at-batch", given]
        assert main(argv) == 0
        assert built[0][1] == [(1, at_seq)]


@pytest.fixture(scope="module")
def first_packet_s():
    """What the generator itself needs before its first packet (it plans
    every flow of the run up front) — the part of the start-up that is
    not the feed loop's, measured here and now, on this host's load."""
    began = time.monotonic()
    spec = command_spec(LONG_RUN)
    generator = runner.build_scenario_generator(spec, spec.seed)
    next(generator.packets())
    return time.monotonic() - began


class TestStreamsAndStops:
    """``--shards`` streams from the generator under ``GracefulShutdown``.
    It used to materialise the whole trace before the first dispatch
    (15 s for this one) and die of ``KeyboardInterrupt`` — no drain, no
    report, exit -2."""

    @pytest.mark.parametrize(
        "signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"]
    )
    def test_a_signal_mid_run_drains_to_a_reconciled_report(
        self, signum, first_packet_s
    ):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        began = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *LONG_RUN],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        children = Path(f"/proc/{process.pid}/task/{process.pid}/children")
        try:
            # The shards fork on the first round's dispatch, so two
            # children mean the stream has started to go out.
            while len(children.read_text().split()) < 2:
                assert process.poll() is None, process.stderr.read()
                assert time.monotonic() - began < 60, "nothing was dispatched"
                time.sleep(0.005)
            first_round_s = time.monotonic() - began
            # More rounds follow the first; the report must count them.
            time.sleep(1.0)
            assert process.poll() is None, process.stderr.read()
            process.send_signal(signum)
            out, err = process.communicate(timeout=60)
        finally:
            process.kill()
            process.wait()
        assert process.returncode == 0, err
        assert "Traceback" not in err
        assert out.startswith(
            f"[{signal.Signals(signum).name}] interrupted — drained gracefully\n"
        )
        assert "check global.conservation: OK" in out
        assert "FAIL" not in out
        packets = int(re.search(r"worker process\(es\), (\d+) packets", out).group(1))
        assert packets > command_spec(LONG_RUN).shard.batch_size, packets
        # Dispatch starts with the stream, not after it: within 2 s of
        # the generator's first packet (start-up and two forks included).
        assert first_round_s < first_packet_s + 2.0, (
            f"first round after {first_round_s:.1f} s; the generator's first "
            f"packet takes {first_packet_s:.1f} s"
        )
