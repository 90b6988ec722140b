"""Command line: one workload (the driver's contract) or the whole set.

``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
in this process and prints its metrics, the last line as one JSON
object. Without ``--workload`` every workload runs (the five that
``BENCHMARK.json`` gates and ``tapmix-shard2``, which it does not), each
in a subprocess of its own and one after another, untraced then traced,
and the result is archived as a ``repro.obs.bench.Resultset``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

from repro.obs.bench import Resultset, collect_meta

from benchmarks.e2e import bench as e2e
from benchmarks.e2e.targets import SHARDS
from benchmarks.e2e.workloads import SCALE, WORKLOADS, WorkloadDrift

ROOT = os.path.dirname(os.path.dirname(e2e.HERE))
ENTRY = os.path.join(e2e.HERE, "__main__.py")


def load_spec() -> dict:
    """``BENCHMARK.json``: the declared names, units, directions, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _emit(spec_metrics: List[dict], values: Dict[str, float], samples: str) -> dict:
    """Print every declared metric by name with its unit; return the
    contract's ``metrics`` object. A value the run did not produce, or
    one it produced without being declared, is a harness bug."""
    declared = [metric["name"] for metric in spec_metrics]
    if sorted(declared) != sorted(values):
        raise RuntimeError(
            "metrics out of step with BENCHMARK.json: "
            f"{sorted(set(declared) ^ set(values))}"
        )
    out = {}
    for metric in spec_metrics:
        name, unit = metric["name"], metric["unit"]
        print(f"  {name:<44} {values[name]:>16.6f} {unit:<10} {samples}")
        out[name] = {"value": values[name], "unit": unit}
    return out


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    spec = load_spec()
    workload = WORKLOADS[name]
    try:
        bench = e2e.set_up(workload, seed)
    except WorkloadDrift as drift:
        print(drift, file=sys.stderr)
        return 2
    try:
        print(
            f"{name} seed={seed} frames={len(bench.trace.frames)} "
            f"expected_measurements={bench.oracle.count} digest={bench.digest}"
        )
        nproc = os.cpu_count() or 1
        if workload.preset == "shard2" and nproc <= SHARDS:
            print(
                f"  oversubscribed: {SHARDS} shards + parent on {nproc} cores; "
                "these figures follow the scheduler (workload not gated)"
            )
        if traced:
            from benchmarks.e2e.layers import per_layer

            values = per_layer(bench, seconds)
            declared = spec["per_layer"]
        else:
            e2e.run_for(bench, seconds)
            values = e2e.end_to_end(bench)
            declared = spec["end_to_end"]
    except e2e.LedgerViolation as violation:
        print(f"ledger violation: {violation}", file=sys.stderr)
        return 2
    finally:
        bench.close()

    repeats = bench.repeats
    attempted = sum(r.expected for r in repeats)
    failed = sum(r.failed for r in repeats)
    late = e2e.late_batches(bench)
    unsustained = late > 0.01 * len(bench.batches)
    samples = (
        f"n={len(repeats)} repeats, "
        f"{len(repeats[0].freshness_ns)} measurements each"
    )
    metrics = _emit(declared, values, samples)
    if unsustained:
        print(f"  unsustained: {late} of {len(bench.batches)} paced batches late")
    correct = failed == 0 and not unsustained
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# -- the whole set ------------------------------------------------------------


def _run_child(name: str, seed: int, seconds: int, traced: bool) -> dict:
    """Run one workload in its own subprocess; return its result object."""
    argv = [
        sys.executable,
        ENTRY,
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "1" if traced else "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.rstrip().splitlines()
    print("\n".join(lines[:-1]))
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{name} (trace={int(traced)}) exited {done.returncode}")
    return json.loads(lines[-1])


def run_set(
    names: List[str], seed: int, seconds: int, traced_too: bool
) -> Dict[str, Dict[str, float]]:
    """Each named workload, one after another: ``{workload: {metric: value}}``."""
    results: Dict[str, Dict[str, float]] = {}
    for name in names:
        values: Dict[str, float] = {}
        for traced in (False, True) if traced_too else (False,):
            result = _run_child(name, seed, seconds, traced)
            values.update({k: v["value"] for k, v in result["metrics"].items()})
        results[name] = values
    return results


def archive(results: Dict[str, Dict[str, float]], seed: int, seconds: int, path: Optional[str]) -> str:
    spec = load_spec()
    resultset = Resultset(
        "e2e",
        meta=collect_meta(
            seed=seed,
            config={
                "nproc": os.cpu_count(),
                "scale": SCALE,
                "run_seconds": seconds,
                "claim": None,  # this benchmark defines names; it claims no gain
            },
        ),
    )
    for name, values in results.items():
        for metric in spec["end_to_end"] + spec["per_layer"]:
            if metric["name"] in values:
                resultset.record(
                    f"{name}__{metric['name']}",
                    values[metric["name"]],
                    unit=metric["unit"],
                    higher_is_better=metric["better"] == "higher",
                    # Per-layer figures carry no bound; half is wide
                    # enough that ``ruru perf compare`` only flags a
                    # layer that really moved.
                    noise=metric.get("bound", 0.5),
                )
    if path is None:
        rev = str(resultset.meta.get("git_rev", "unknown"))[:12]
        path = os.path.join(e2e.RESULTS_DIR, f"e2e-{rev}.json")
    return resultset.write(path)


def check_repeat(seed: int, seconds: int) -> int:
    """Run the gated workloads' end-to-end set twice; fail if any metric
    on any of them differs between the two by more than its own bound."""
    spec = load_spec()
    names = [workload.name for workload in WORKLOADS.values() if workload.gated]
    first = run_set(names, seed, seconds, traced_too=False)
    second = run_set(names, seed, seconds, traced_too=False)
    lines = [
        f"repeatability: two sets of the same code, seed {seed}, "
        f"{seconds} s per workload, nproc {os.cpu_count()}",
        f"{'workload':<20} {'metric':<20} {'first':>14} {'second':>14} "
        f"{'differ':>8} {'bound':>7}",
    ]
    failures = 0
    for name in names:
        for metric in spec["end_to_end"]:
            a, b = first[name][metric["name"]], second[name][metric["name"]]
            differ = abs(b - a) / a
            verdict = "" if differ <= metric["bound"] else "  FAIL"
            failures += bool(verdict)
            lines.append(
                f"{name:<20} {metric['name']:<20} {a:>14.4f} {b:>14.4f} "
                f"{differ:>8.2%} {metric['bound']:>7.0%}{verdict}"
            )
    lines.append(f"{'FAIL' if failures else 'OK'}: {failures} beyond bound")
    text = "\n".join(lines)
    print(text)
    with open(
        os.path.join(e2e.RESULTS_DIR, "repeatability.txt"), "w", encoding="utf-8"
    ) as handle:
        handle.write(text + "\n")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--output", help="where to archive the set's resultset")
    args = parser.parse_args(argv)
    seconds = args.seconds or load_spec()["run_seconds"]
    if args.workload:
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    os.makedirs(e2e.RESULTS_DIR, exist_ok=True)
    if args.check_repeat:
        return check_repeat(args.seed, seconds)
    results = run_set(list(WORKLOADS), args.seed, seconds, traced_too=True)
    print(f"archived: {archive(results, args.seed, seconds, args.output)}")
    return 0
