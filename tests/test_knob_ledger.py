"""Knob ledger: how many values a run can be told, counted and pinned.

A run is configured through three surfaces: the scenario document's
leaf fields, the :class:`~repro.stack.StackBuilder` methods' parameters
and the preset functions' parameters. Each pinned figure below is that
surface's size. A knob that only ever takes one value is a constant
with a name, and a tier switched from outside ``stack.tiers`` is a
second switch for one thing; so a change that adds a knob changes its
pin here and says in CHANGES.md which caller turns it. The CLI's
options are pinned beside them: every flag sets a spec path or a
renderer, and none is added to reach a knob the spec lacks.
"""

import dataclasses
import inspect

from repro.cli import OPTIONS
from repro.scenarios.spec import SECTIONS, ScenarioSpec
from repro.stack import (
    StackBuilder,
    build_live_stack,
    build_measure_stack,
    build_sharded_runtime,
)

PRESETS = (build_measure_stack, build_live_stack, build_sharded_runtime)

#: surface -> its size.
PINNED = {
    "spec leaf fields": 34,
    "StackBuilder parameters": 17,
    "preset parameters": 13,
    "CLI options": 56,
}


def _parameters(function):
    return [name for name in inspect.signature(function).parameters if name != "self"]


def spec_leaves():
    """Every settable path of a scenario document: a section's fields,
    and the document's own fields (the anomaly schedule and the expect
    bands count once each)."""
    return [
        f"{entry.name}.{leaf.name}" if entry.name in SECTIONS else entry.name
        for entry in dataclasses.fields(ScenarioSpec)
        for leaf in (
            dataclasses.fields(SECTIONS[entry.name]) if entry.name in SECTIONS else (entry,)
        )
    ]


def builder_parameters():
    return [
        f"{name}({parameter})"
        for name, method in inspect.getmembers(StackBuilder, inspect.isfunction)
        if not name.startswith("_")
        for parameter in _parameters(method)
    ]


def preset_parameters():
    return [
        f"{preset.__name__}({parameter})" for preset in PRESETS for parameter in _parameters(preset)
    ]


def test_the_run_configuration_surface_is_pinned():
    surfaces = {
        "spec leaf fields": spec_leaves(),
        "StackBuilder parameters": builder_parameters(),
        "preset parameters": preset_parameters(),
        "CLI options": list(OPTIONS),
    }
    census = {surface: len(values) for surface, values in surfaces.items()}
    assert census == PINNED, "\n".join(f"{name}: {values}" for name, values in surfaces.items())
