"""The CLI is a scenario spec: every flag is honoured or refused.

The grid runs every stack-running command under every subset of the
on/off flags it takes, on a 1-s, 20 flows/s workload. Each combination
either exits 0/1 with its report, or exits 2 with one
``ruru <command>: error: …`` line on stderr and nothing on stdout; none
prints a traceback. The round trip writes the spec a command line
builds as JSON, replays it with ``ruru scenario run``, and finds the
command's own counts: packets offered, measurements and, where the
analytics tier runs, the conservation ledger.
"""

import itertools
import json
import shutil

import pytest

import repro.cli
from repro.cli import command_spec, main
from repro.obs.bench import load_resultset

WORKLOAD = ["--duration", "1", "--rate", "20"]

#: Command -> the on/off flags it takes.
GRID = {
    "measure": [["--telemetry"]],
    "demo": [["--telemetry"]],
    "detect": [["--telemetry"], ["--glitch"], ["--flood"]],
    "export": [["--telemetry"]],
    "metrics": [["--telemetry"]],
    "prof": [["--telemetry"]],
    "analyze": [["--telemetry"], ["--glitch"]],
    "chaos": [["--overload"], ["--shards", "2"], ["--metrics"], ["--kill-shard", "1"]],
    "dlq": [["--overload"]],
    "live": [["--overload"], ["--shards", "2"], ["--fsync-wal"], ["--retention", "5"]],
    "recover": [
        ["--overload"], ["--fsync-wal"], ["--retention", "5"],
        ["--trial", "mq.publish", "--hit", "1"], ["--drain"],
    ],
}


def argv_for(command, flags, tmp_path):
    argv = [command, *WORKLOAD, *flags]
    if command == "recover" or (command == "live" and "--shards" not in flags):
        argv += ["--state-dir", str(tmp_path / "state")]
    if command == "export":
        argv += ["--output", str(tmp_path / "m.lp")]
    return argv


def cells():
    for command, switches in GRID.items():
        for size in range(len(switches) + 1):
            for chosen in itertools.combinations(switches, size):
                yield command, [arg for switch in chosen for arg in switch]


def test_every_flag_combination_runs_or_is_refused(tmp_path, capsys):
    outcomes = {}
    for command, flags in cells():
        shutil.rmtree(tmp_path / "state", ignore_errors=True)
        code = main(argv_for(command, flags, tmp_path))
        out, err = capsys.readouterr()
        name = " ".join([command, *flags])
        assert "Traceback" not in out + err, name
        if code == 2:
            assert out == "" and err.count("\n") == 1, name
            assert err.startswith(f"ruru {command}: error: "), name
        else:
            assert code in (0, 1) and out and not err, (name, code, err)
        outcomes[name] = code
    assert len(outcomes) == sum(2 ** len(switches) for switches in GRID.values())
    refused = {name for name, code in outcomes.items() if code == 2}
    # Only what the shard target cannot honour is refused: --overload,
    # --retention or --fsync-wal with --shards, and a kill with no shards
    # to kill. (The shard target writes no state dir, so a sharded live
    # cell is run without --state-dir; with one it is refused too.)
    assert refused == {
        " ".join([command, *flags])
        for command, flags in cells()
        if ("--shards" in flags and {"--overload", "--retention", "--fsync-wal"} & set(flags))
        or ("--kill-shard" in flags and "--shards" not in flags)
    }
    sharded = ["live", *WORKLOAD, "--shards", "2", "--state-dir", str(tmp_path / "state")]
    assert main(sharded) == 2
    err = capsys.readouterr().err
    assert err.startswith("ruru live: error: shard.shards > 0 does not take durable.state_dir")
    assert err.count("\n") == 1


class Captured:
    """Every episode a command line ran, in order."""

    def __init__(self, monkeypatch):
        self.episodes = []
        episode = repro.cli.Episode
        owner = self

        class Recorded(episode):
            def run(self, *args, **kwargs):
                owner.episodes.append(self)
                return super().run(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "Episode", Recorded)


def counts_of(episode):
    """The exact counts a command's own episode produced."""
    if episode.runtime is not None:
        ledger = episode.report.ledger
        measurements = episode.report.records["emitted"]
        offered = episode.runtime.ingested
    else:
        stack = episode.stack
        measurements = episode.report.stats.measurements
        offered = episode.report.stats.packets_offered
        ledger = stack.service.conservation_ledger() if stack.service else None
    counts = {"scenario.packets_offered": offered, "scenario.measurements": measurements}
    if ledger is not None:
        for term in ("ingested", "processed", "dropped", "deadlettered"):
            counts[f"ledger.{term}"] = getattr(ledger, term)
    return counts


ROUND_TRIPS = [
    ["measure"],
    ["demo"],
    ["detect", "--glitch", "--flood", "--telemetry"],
    ["export"],
    ["metrics"],
    ["prof"],
    ["analyze", "--glitch"],
    ["chaos", "--overload"],
    ["chaos", "--shards", "2"],
    ["dlq", "--profile", "monsoon"],
    ["live", "--retention", "5"],
]


@pytest.mark.parametrize("line", ROUND_TRIPS, ids=" ".join)
def test_a_commands_spec_replays_to_its_counts(line, tmp_path, monkeypatch, capsys):
    argv = argv_for(line[0], line[1:], tmp_path)
    captured = Captured(monkeypatch)
    assert main(argv) in (0, 1)
    (episode,) = captured.episodes
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(command_spec(argv).to_dict()))
    assert command_spec(argv) == episode.spec

    shutil.rmtree(tmp_path / "state", ignore_errors=True)
    out = tmp_path / "rs.json"
    capsys.readouterr()
    assert main(["scenario", "run", str(spec_file), "--out", str(out)]) == 0, (
        capsys.readouterr().out
    )
    replayed = load_resultset(str(out)).metrics
    for name, value in counts_of(episode).items():
        assert replayed[name]["value"] == value, name


def test_recover_runs_the_spec_live_runs(tmp_path):
    """``recover`` rebuilds what ``live`` ran (its trial too), so its
    spec is live's, flag for flag."""
    flags = ["--state-dir", str(tmp_path), "--overload", "--keep-checkpoints", "3"]
    live, recover = (command_spec([cmd, *flags]) for cmd in ("live", "recover"))
    assert recover.to_dict() == {**live.to_dict(), "name": "recover",
                                 "description": "what ruru recover runs"}
