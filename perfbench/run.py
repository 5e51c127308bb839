"""The repo benchmark: two workloads, end-to-end metrics, traced per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-batch --seed 1 --seconds 45 --trace 0

Workloads (see ``perfbench/LAYERS.md`` for why each was chosen and which
layer metric should move which end-to-end metric):

* ``paper-batch`` -- a fresh worker interpreter (``worker.py``) cycles
  through seed-derived ``figure4``, ``resilience`` and ``lp`` calls until
  the window is spent.  ``wall_s`` is the time of one round: the sum over
  the inputs of the fastest call on each.  The machine the benchmark was
  built on changes speed by 45-60% between stretches of seconds to
  minutes; over the same five runs the fastest calls spread 0.11 where the
  median calls spread 0.17 (interquartile range over median).
* ``serve-mixed`` -- a ``repro serve`` daemon driven open-loop by
  ``serve_load.py``.

Every timed process starts with ``REPRO_FULL``, ``REPRO_TELEMETRY`` and
``REPRO_CACHE_DIR`` scrubbed and ``REPRO_KERNELS`` pinned to the shipped
default, so no result cache and no preset switch changes the work.  Every
result is schema-validated and its sha256 compared with the digest
``references.json`` records for the seed (with the first pass's digest
when the seed has none).

The last stdout line is the JSON summary: ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  Exits 2 without a
summary when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    SERVE_WORKLOAD,
    WORKLOADS,
    BATCH_EXPERIMENTS,
    batch_inputs,
    load_references,
    tail_percentile,
)

#: Environment knobs that change what a run computes; never inherited.
SCRUBBED_ENV = ("REPRO_FULL", "REPRO_TELEMETRY", "REPRO_CACHE_DIR", "REPRO_KERNELS")
#: The kernels backend every run uses (the shipped default).
PINNED_KERNELS = "numpy"
#: ``setup_s`` is the median of three samples: a probe interpreter before
#: the window, the worker's own start, and a probe after the window.
SETUP_PROBES_BEFORE = 1
SETUP_PROBES_AFTER = 1

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "network.topologies.self_s": "s",
    "workloads.self_s": "s",
    "workloads.requests": "count",
    "protocols.setup_s": "s",
    "network.generation.self_s": "s",
    "network.generation.pairs": "count",
    "scenarios.self_s": "s",
    "core.maxmin.self_s": "s",
    "core.maxmin.rounds": "count",
    "core.maxmin.node_turns": "count",
    "core.maxmin.swaps": "count",
    "core.maxmin.swap_yield": "ratio",
    "protocols.consumption.self_s": "s",
    "protocols.requests_satisfied": "count",
    "protocols.pairs_consumed": "count",
    "analysis.self_s": "s",
    "runtime.sweep_overhead_s": "s",
    "core.lp.build_s": "s",
    "core.lp.solve_s": "s",
    "core.lp.programs": "count",
    "core.lp.variables": "count",
    "core.lp.constraints": "count",
    "core.lp.nonzeros": "count",
    "experiments.figure4.wall_s": "s",
    "experiments.resilience.wall_s": "s",
    "experiments.lp.wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.result_wait_ms": "ms",
    "serve.coalesced_share": "ratio",
    "serve.rejected": "count",
    "serve.jobs_retained": "count",
    "bench.generator_lag_ms": "ms",
    "obs.tracing_overhead_s": "s",
}


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def clean_env(root: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_KERNELS"] = PINNED_KERNELS
    return env


def _start_worker(root: Path, env: Dict[str, str], args: List[str]):
    """Spawn ``worker.py``; return the process and seconds until it printed ``ready``."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + args,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = process.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        process.kill()
        process.communicate()
        raise RuntimeError(f"worker did not get ready (printed {line!r})")
    return process, ready


def _probe(root: Path, env: Dict[str, str]) -> float:
    process, ready = _start_worker(root, env, ["--probe"])
    process.communicate(timeout=60)
    return ready


def run_batch(root: Path, env: Dict[str, str], args: argparse.Namespace) -> Dict[str, Any]:
    setup = [_probe(root, env) for _ in range(SETUP_PROBES_BEFORE)]
    worker, ready = _start_worker(
        root,
        env,
        [
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
    )
    setup.append(ready)
    try:
        output, _ = worker.communicate(timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.communicate()
        raise RuntimeError("worker overran its window")
    reports = [line[len("report "):] for line in output.splitlines() if line.startswith("report ")]
    if worker.returncode != 0 or not reports:
        raise RuntimeError(f"worker exited {worker.returncode} without a report")
    report = json.loads(reports[-1])
    setup += [_probe(root, env) for _ in range(SETUP_PROBES_AFTER)]
    passes = report["passes"]
    inputs = sorted({record["input"] for record in passes})
    if not passes or inputs != list(range(len(batch_inputs(args.seed)))):
        raise RuntimeError(f"the run did not reach every input: {report['error']}")

    # Per input: the recorded digest (or the first pass's) and the first
    # pass's work counters, which every repeat must match exactly.
    recorded = load_references().get("batch", {}).get(str(args.seed))
    first = {}
    for record in passes:
        first.setdefault(record["input"], record)
    failures: List[str] = []
    for number, record in enumerate(passes):
        expected = first[record["input"]]
        digest = recorded[record["input"]] if recorded else expected["digest"]
        if record["digest"] != digest:
            failures.append(f"pass {number}: digest {record['digest'][:12]} != {digest[:12]}")
        elif record["counters"] != expected["counters"]:
            failures.append(f"pass {number}: work counters differ from the first pass on its input")
    if report["error"]:
        failures.append(report["error"])
    checks = []
    if report["kernels"] != PINNED_KERNELS:
        checks.append(f"kernels backend {report['kernels']} != pinned {PINNED_KERNELS}")

    def round_total(records, read, experiment=None, pick=min) -> float:
        """Sum over the inputs (of one experiment, or all) of the fastest reading on each."""
        return sum(
            pick(read(record) for record in records if record["input"] == index)
            for index in inputs
            if experiment in (None, first[index]["experiment"])
        )

    untraced = [record for record in passes if not record["traced"]]
    traced = [record for record in passes if record["traced"]]
    calls = [record["wall_s"] for record in untraced]
    tail_s, tail_rank = tail_percentile(calls)
    per_layer = {name: 0.0 for name in PER_LAYER}
    for counters in (first[index]["counters"] for index in inputs):
        for name, value in counters.items():
            per_layer[name] += value
    node_turns = per_layer["core.maxmin.node_turns"]
    per_layer["core.maxmin.swap_yield"] = (
        per_layer["core.maxmin.swaps"] / node_turns if node_turns else 0.0
    )
    per_layer["latency_p50_ms"] = median(calls) * 1000.0
    per_layer["latency_tail_ms"] = tail_s * 1000.0

    def wall_of(record) -> float:
        return record["wall_s"]

    wall = round_total(untraced, wall_of)
    for experiment in BATCH_EXPERIMENTS:
        per_layer[f"experiments.{experiment}.wall_s"] = round_total(untraced, wall_of, experiment)
    if traced:
        for name in traced[0]["layers"]:
            per_layer[name] = round_total(traced, lambda record: record["layers"][name])
        per_layer["obs.tracing_overhead_s"] = round_total(traced, wall_of) - wall
    return {
        "attempted": len(passes) + (1 if report["error"] else 0),
        "failed": len(failures),
        "failures": failures[:5],
        "checks": checks,
        "end_to_end": {
            "wall_s": wall,
            "setup_s": median(setup),
            "peak_rss_mb": report["peak_rss_mb"],
        },
        "per_layer": per_layer,
        "info": {
            "passes": len(untraced),
            "traced_passes": len(traced),
            "inputs": len(inputs),
            "wall_median_s": round_total(untraced, wall_of, pick=median),
            "setup_samples_s": setup,
            "latency_p50_ms": per_layer["latency_p50_ms"],
            "latency_tail_ms": per_layer["latency_tail_ms"],
            "tail_percentile": tail_rank,
            "reference": "recorded" if recorded else "unrecorded (repeats checked against each other)",
            "kernels": report["kernels"],
            "revision": report["revision"],
            "fingerprint": report["fingerprint"],
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout root", file=sys.stderr)
        return 2
    env = clean_env(root)
    if args.workload == SERVE_WORKLOAD:
        from serve_load import run_serve

        outcome = run_serve(root, env, args.seed, args.seconds)
    else:
        outcome = run_batch(root, env, args)

    values, units = (
        (outcome["per_layer"], PER_LAYER) if args.trace else (outcome["end_to_end"], END_TO_END)
    )
    print(
        "perfbench: "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "error_rate": outcome["failed"] / outcome["attempted"],
                "failures": outcome["failures"] + outcome["checks"],
                **outcome["end_to_end"],
                **outcome["info"],
            }
        )
    )
    summary = {
        "correct": outcome["failed"] == 0 and not outcome["checks"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
