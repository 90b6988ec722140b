"""The reference end-to-end benchmark (see README.md in this directory).

Six steady-state workloads, generated from ``--seed`` and fed through
the public entry points of the assembled stack; every layer is measured
from outside ``src/``. ``BENCHMARK.json`` at the repo root declares the
metric names, units and regression bounds this package reports, and the
five workloads a later change is held to.
"""
