"""Sharded chaos ↔ scenario round trip: one set of books, two renderings.

The sharded twin of ``test_chaos_roundtrip.py``. ``ruru chaos --shards``
prints a drained sharded run's report; ``run_scenario`` of the same
command line's spec records its books as exact metrics. Every number
the report prints — the ledger terms, each shard's counts, the
reroutes, the per-class shed and the reconciliation — must be the
matching metric of the scenario run.
"""

import re

import pytest

from repro.cli import command_spec, main
from repro.scenarios.runner import run_scenario

KILL = ["chaos", "--shards", "2", "--seed", "42", "--kill-shard"]

#: A printed ledger term → its metric.
LEDGER = {
    "ingested": "ledger.ingested",
    "processed": "ledger.processed",
    "dropped": "ledger.dropped",
    "deadlettered": "ledger.deadlettered",
    "shed": "shard.ledger.shed",
    "lost_at_crash": "shard.ledger.lost_at_crash",
}

#: Metrics the report does not print: the flow count, and the balance
#: (printed as ``[OK]``).
UNPRINTED = {"scenario.flows", "ledger.balance"}


def _terms(text):
    return [(term, int(value)) for term, value in re.findall(r"(\w+)=(\d+)", text)]


def printed_numbers(text):
    """Every number of a sharded ``ruru chaos`` report, keyed by the
    metric it claims to be (the run's records and restarts are the
    shards', summed; ``shards`` and ``kill_shard`` are the spec's)."""
    lines = text.splitlines()
    head = re.fullmatch(
        r"sharded run: (\d+) worker process\(es\), (\d+) packets, SIGKILL shard (\d+)", lines[0]
    )
    numbers = {
        "shards": int(head[1]),
        "scenario.packets_offered": int(head[2]),
        "kill_shard": int(head[3]),
        "scenario.measurements": 0,
    }
    ledger = None
    for line in lines[1:]:
        if line.startswith("shard ledger: "):
            ledger = line
            numbers.update((LEDGER[term], value) for term, value in _terms(line))
            continue
        shard = re.fullmatch(r"  (shard-\d+): state=\w+ (.*)", line)
        if shard:
            numbers.update((f"shard.{shard[1]}.{term}", value) for term, value in _terms(shard[2]))
            continue
        policy = re.fullmatch(r"  policy: rerouted=(\d+) shed=\[(.*)\]", line)
        if policy:
            numbers["shard.rerouted"] = int(policy[1])
            numbers.update((f"shard.shed.{klass}", value) for klass, value in _terms(policy[2]))
            continue
        check = re.fullmatch(r"  check (shard-\d+)\.(\w+): OK \(child=(\d+) parent=(\d+)\)", line)
        if check:
            name, term, child, parent = check[1], check[2], int(check[3]), int(check[4])
            assert child == parent, line
            if term == "packets_processed":
                assert parent == numbers[f"shard.{name}.acked"], line
            elif term == "records_emitted":
                numbers["scenario.measurements"] += parent
            continue
        if line.startswith("  check global.conservation: OK ("):
            assert line == f"  check global.conservation: OK ({ledger})"
            continue
        assert not re.search(r"\d", line), f"a number the test does not map: {line!r}"
    numbers["shard.records.delivered"] = numbers["scenario.measurements"]
    numbers["shard.restarts"] = sum(
        value for name, value in numbers.items() if name.endswith(".restarts")
    )
    return numbers


@pytest.mark.parametrize(
    "argv",
    [
        [*KILL, "1", "--kill-at-batch", "0"],
        [*KILL, "1", "--kill-at-batch", "2"],
        [*KILL, "1", "--kill-at-batch", "6"],
        [*KILL, "0", "--kill-at-batch", "2", "--shard-policy", "reroute-all"],
    ],
    ids=["kill-at-0", "kill-at-2", "kill-at-6", "reroute-all"],
)
def test_every_printed_number_is_a_scenario_metric(argv, capsys):
    assert main(argv) == 0
    printed = printed_numbers(capsys.readouterr().out)
    spec = command_spec(argv)
    result = run_scenario(spec)
    assert result.ok, [check.render() for check in result.checks if not check.ok]

    assert printed.pop("shards") == spec.shard.shards
    assert printed.pop("kill_shard") == spec.shard.kill_shard
    assert result.metric("ledger.balance") == 0
    assert printed["shard.ledger.lost_at_crash"] > 0
    for name, value in printed.items():
        assert result.metric(name) == value, name
    # And the books hold no count the report left out.
    assert set(result.resultset.metrics) - set(printed) == UNPRINTED
