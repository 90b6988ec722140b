"""The exposition is the books.

For every chaos profile, with and without overload control, and for a
sharded run that loses a shard: each term of the run's books appears in
its Prometheus exposition with the same value, or is a declared sum whose
parts add up to it; and every sample but the wall-clock ones comes from
exactly one term. Each run is two seconds of traffic (about 0.05 s), so
the whole grid stays in tier-1.
"""

import re

import pytest

from repro.cli import command_spec
from repro.faults import PROFILES
from repro.scenarios.runner import Episode
from repro.stack.metrics import WALL_CLOCK, series_of, sum_of

RUN = ["--duration", "2", "--rate", "20"]
SAMPLE = re.compile(r"(\w+)(?:\{(.*)\})? (\S+)")
LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def samples(text):
    """``{(family, ((label, value), …)): value}`` of an exposition."""
    found = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            name, labels, value = SAMPLE.fullmatch(line).groups()
            found[(name, tuple(LABEL.findall(labels or "")))] = float(value)
    return found


def assert_books_are_the_exposition(episode):
    books = episode.counts
    exposed = samples(episode.telemetry.registry.exposition())
    claimed = {}
    for term, value in books.items():
        summed = sum_of(term)
        if summed is not None:
            family, labels = summed
            parts = [
                sample for (name, pairs), sample in exposed.items()
                if name == family and set(labels.items()) <= set(pairs)
            ]
            assert sum(parts) == value, term
            continue
        family, _, names, values = series_of(term)
        key = (family, tuple(zip(names, values)))
        assert exposed.get(key) == value, term
        claimed.setdefault(key, []).append(term)
    assert {key: terms for key, terms in claimed.items() if len(terms) > 1} == {}
    assert [key for key in exposed if key not in claimed and not key[0].startswith(WALL_CLOCK)] == []


@pytest.mark.parametrize("overload", [False, True], ids=["plain", "overload"])
@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_the_books_are_the_exposition(profile, overload):
    argv = ["chaos", "--profile", profile, *RUN] + ["--overload"] * overload
    episode = Episode(command_spec(argv)).run()
    assert episode.error is None
    assert_books_are_the_exposition(episode)


def test_a_sharded_run_that_loses_a_shard_is_its_exposition():
    argv = ["chaos", "--shards", "2", "--kill-shard", "1", "--kill-at-batch", "2", *RUN]
    episode = Episode(command_spec(argv)).run()
    assert episode.report.ok and episode.counts["shard.restarts"] == 1
    assert_books_are_the_exposition(episode)
