"""Chaos ↔ scenario round trip: one set of books, two renderings.

``ruru chaos`` prints a drained episode's books; ``run_scenario`` of the
same command line's spec records them as exact metrics. For every fault
profile, with and without overload control, every number the chaos
report prints must be the matching metric of the scenario run — the
breakers' recovery times excepted, which come from their transition
logs, not from the books.
"""

import re

import pytest

from repro.cli import command_spec, main
from repro.faults import PROFILES
from repro.overload import CLASSES
from repro.scenarios.runner import run_scenario

RUN = ["--duration", "2", "--rate", "20"]

#: Printed line → the metrics its numbers are, in order.
LINES = (
    (r"\s+(\S+)\.(\S+) +(\d+)", None),
    (r"dead letters: depth=(\d+) total=(\d+)", ("resilience.dlq_depth", "resilience.dlq_total")),
    (r"supervisor restarts: (\d+)", ("supervisor.restarts",)),
    (
        r"tsdb: (\d+) points written, (\d+) lost, (\d+) retries",
        ("resilience.points_written", "resilience.points_lost", "resilience.retries"),
    ),
    (r"breaker '(\w+)': opened (\d+)x.*", None),
)


def printed_numbers(text):
    """Every number of a ``ruru chaos`` report, keyed by the metric it
    claims to be (``overload.shed`` is the printed total, ``loss`` the
    printed percentage)."""
    lines = text.splitlines()
    numbers = {"seed": int(re.fullmatch(r"chaos run: profile='[\w-]+' seed=(\d+)", lines[0])[1])}
    for line in lines[2:]:  # the description may hold digits of its own
        if line.startswith("conservation: "):
            numbers.update(
                (f"ledger.{term}", int(value)) for term, value in re.findall(r"(\w+)=(\d+)", line)
            )
            continue
        loss = re.fullmatch(r"measurement loss: ([\d.]+%) \((\d+) published degraded\)", line)
        if loss:
            numbers["loss"] = loss[1]
            numbers["resilience.degraded_published"] = int(loss[2])
            continue
        overload = re.fullmatch(
            r"overload: peaked at level (\d+) \((\d+) transitions\), shed (\d+)(?: \((.*)\))?", line
        )
        if overload:
            numbers["overload.level_max"] = int(overload[1])
            numbers["overload.transitions"] = int(overload[2])
            numbers["overload.shed"] = int(overload[3])
            for klass, stage, value in re.findall(r"(\w+)/(\w+)=(\d+)", overload[4] or ""):
                numbers[f"overload.shed.{klass}.{stage}"] = int(value)
            continue
        for pattern, names in LINES:
            match = re.fullmatch(pattern, line)
            if match is None:
                continue
            if pattern.startswith("breaker"):
                numbers[f"breaker.{match[1]}.opened"] = int(match[2])
            elif names is None:
                numbers[f"fault.{match[1]}.{match[2]}"] = int(match[3])
            else:
                numbers.update(zip(names, map(int, match.groups())))
            break
        else:
            assert not re.search(r"\d", line), f"a number the test does not map: {line!r}"
    return numbers


@pytest.mark.parametrize("overload", [False, True], ids=["plain", "overload"])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_every_printed_number_is_a_scenario_metric(profile, overload, capsys):
    argv = ["chaos", "--profile", profile, *RUN] + ["--overload"] * overload
    assert main(argv) == 0
    printed = printed_numbers(capsys.readouterr().out)
    result = run_scenario(command_spec(argv))
    assert result.ok, [check.render() for check in result.checks if not check.ok]

    assert printed.pop("seed") == result.seed
    ingested, processed = result.metric("ledger.ingested"), result.metric("ledger.processed")
    loss = 1.0 - processed / ingested if ingested else 0.0
    assert printed.pop("loss") == f"{loss:.2%}"
    if overload:
        shed = sum(result.metric(f"overload.shed.{klass}") for klass in CLASSES)
        assert printed.pop("overload.shed") == shed
    assert {"ledger.ingested", "resilience.retries", "supervisor.restarts"} <= set(printed)
    assert ("overload.level_max" in printed) == overload
    for name, value in printed.items():
        assert result.metric(name) == value, name
    # And the books hold no fault the report left out.
    faults = {name for name in result.resultset.metrics if name.startswith("fault.")}
    assert faults == {name for name in printed if name.startswith("fault.")}
