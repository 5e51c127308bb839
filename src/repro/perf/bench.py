"""The benchmark-trajectory emitter behind ``repro bench``.

Re-runs the workloads the ``benchmarks/`` suite times — the accelerated
kernels against their pure-Python references, the vectorized arrival
sampling, the incremental balancer's convergence (through the group-keyed
notification channel and rewired to the historical pair channel, so the
group layer's overhead on pair workloads stays measured), a quick figure-4
sweep, the telemetry layer's span overhead on an instrumented trial, and the
serve daemon's submit-to-result roundtrip (cold vs answered from the shared
result memo) — in a deterministic quick mode, and emits one JSON document:
per-benchmark median-of-k wall times (see :mod:`repro.perf.timing`), the
machine fingerprint, and the git revision.  The checked-in snapshot
lives at ``BENCH_10.json`` in the repo root (``BENCH_6.json``,
``BENCH_7.json``, and ``BENCH_9.json`` are prior issues' trajectories,
kept for history), regenerated with::

    PYTHONPATH=src python -m repro bench --output BENCH_10.json --force

so future sessions can see the perf trajectory instead of guessing.  CI
re-emits and schema-validates the document on every push (the
``--quick`` variant) and uploads it as an artifact.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from repro.perf.kernels import (
    active_backend,
    available_backends,
    get_kernel,
    kernel_names,
)
from repro.perf.schemas import PERF_SCHEMA_VERSION, validate_bench
from repro.perf.timing import median_of_k

#: Input sizes per kernel: full (the checked-in trajectory) and quick (CI).
_KERNEL_SIZES = {
    "balancer-candidates": {"full": 600, "quick": 250},
    "serve-prefix": {"full": 200_000, "quick": 50_000},
}


def _kernel_inputs(name: str, quick: bool):
    """Deterministic synthetic inputs for kernel ``name`` at trajectory scale."""
    size = _KERNEL_SIZES[name]["quick" if quick else "full"]
    rng = np.random.default_rng(6)
    if name == "balancer-candidates":
        headroom = rng.integers(0, 8, size).astype(np.int64)
        recipient = rng.integers(0, 10, (size, size)).astype(np.int64)
        return (headroom, recipient)
    if name == "serve-prefix":
        # A mostly-servable stream (the regime the doubling window feeds the
        # kernel): budgets straddle the ~size/35 expected per-pair load.
        codes = rng.integers(0, 35, size).astype(np.int64)
        budgets = rng.integers(size // 40, size // 25, 35).astype(np.int64)
        return (codes, budgets)
    raise KeyError(f"no bench inputs for kernel {name!r}")


def _accelerated_backend() -> str:
    """The fastest accelerated backend available (numba > numpy)."""
    backends = available_backends()
    return "numba" if "numba" in backends else "numpy"


def _kernel_benchmarks(repeats: int, warmup: int, quick: bool) -> List[Dict[str, Any]]:
    backend = _accelerated_backend()
    entries = []
    for name in kernel_names():
        pair = get_kernel(name)
        inputs = _kernel_inputs(name, quick)
        reference_seconds = median_of_k(
            lambda: pair.reference(*inputs), repeats=repeats, warmup=warmup
        )
        accelerated = pair.implementation(backend)
        accelerated_seconds = median_of_k(
            lambda: accelerated(*inputs), repeats=repeats, warmup=warmup
        )
        entries.append(
            {
                "name": f"kernel.{name}",
                "group": "kernels",
                "median_seconds": accelerated_seconds,
                "reference_median_seconds": reference_seconds,
                "speedup": reference_seconds / accelerated_seconds
                if accelerated_seconds > 0
                else None,
            }
        )
    return entries


def _arrivals_benchmark(repeats: int, warmup: int, quick: bool) -> Dict[str, Any]:
    from repro.workloads.arrivals import poisson_counts, poisson_counts_scalar

    horizon = 20_000 if quick else 100_000
    vector_seconds = median_of_k(
        lambda: poisson_counts(1.0, horizon, np.random.default_rng(42)),
        repeats=repeats,
        warmup=warmup,
    )
    scalar_seconds = median_of_k(
        lambda: poisson_counts_scalar(1.0, horizon, np.random.default_rng(42)),
        repeats=repeats,
        warmup=warmup,
    )
    return {
        "name": "workloads.poisson-arrivals",
        "group": "workloads",
        "median_seconds": vector_seconds,
        "reference_median_seconds": scalar_seconds,
        "speedup": scalar_seconds / vector_seconds if vector_seconds > 0 else None,
    }


def _balancer_benchmark(repeats: int, warmup: int, quick: bool) -> Dict[str, Any]:
    from repro.core.maxmin.incremental import IncrementalMaxMinBalancer
    from repro.core.maxmin.ledger import PairCountLedger

    n_nodes = 60 if quick else 120

    def converge():
        ledger = PairCountLedger(range(n_nodes))
        rng = np.random.default_rng(3)
        for node in range(n_nodes):
            ledger.add(node, (node + 1) % n_nodes, int(rng.integers(1, 12)))
        balancer = IncrementalMaxMinBalancer(
            ledger, rng=np.random.default_rng(0), keep_records=False
        )
        balancer.balance_to_convergence(max_rounds=5000)
        balancer.detach()

    return {
        "name": "balancer.incremental-convergence",
        "group": "maxmin",
        "median_seconds": median_of_k(converge, repeats=repeats, warmup=warmup),
        "reference_median_seconds": None,
        "speedup": None,
    }


def _group_ledger_benchmark(repeats: int, warmup: int, quick: bool) -> Dict[str, Any]:
    """Group-channel vs pair-channel balancer wiring on an all-pairs workload.

    ``median_seconds`` times the incremental balancer's mirror wired
    through the ledger's group notification channel; the reference is the
    pair channel it ships on.  The ratio is the group layer's overhead on
    pair-only workloads — ``benchmarks/test_bench_groups.py`` holds it
    under 10%.
    """
    from itertools import combinations

    from repro.core.maxmin.incremental import IncrementalMaxMinBalancer
    from repro.core.maxmin.ledger import PairCountLedger

    n_nodes = 24 if quick else 40

    def converge(wiring: str):
        ledger = PairCountLedger(range(n_nodes))
        seed_rng = np.random.default_rng(3)
        for a, b in combinations(range(n_nodes), 2):
            ledger.add(a, b, int(seed_rng.integers(1, 8)))
        balancer = IncrementalMaxMinBalancer(
            ledger, rng=np.random.default_rng(0), keep_records=False
        )
        if wiring == "group":
            ledger.unsubscribe(balancer._on_mutation)

            def on_group_mutation(group, old, new):
                if len(group) == 2:
                    balancer._on_mutation(group[0], group[1], old, new)

            ledger.subscribe_groups(on_group_mutation)
        balancer.balance_to_convergence(max_rounds=5000)

    # Interleave the two wirings sample-by-sample: each measurement takes
    # long enough (~10^2 ms at full size) that machine drift across two
    # back-to-back median_of_k blocks would swamp the ~percent-level
    # overhead being measured.  Alternation cancels the drift from the
    # ratio.
    import statistics
    import time

    for _ in range(warmup):
        converge("group")
        converge("pair")
    group_samples: List[float] = []
    pair_samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        converge("group")
        group_samples.append(time.perf_counter() - start)
        start = time.perf_counter()
        converge("pair")
        pair_samples.append(time.perf_counter() - start)
    group_seconds = statistics.median(group_samples)
    pair_seconds = statistics.median(pair_samples)
    return {
        "name": "maxmin.group-ledger-allpairs",
        "group": "maxmin",
        "median_seconds": group_seconds,
        "reference_median_seconds": pair_seconds,
        "speedup": pair_seconds / group_seconds if group_seconds > 0 else None,
    }


def _figure4_benchmark(repeats: int, warmup: int, quick: bool) -> Dict[str, Any]:
    from repro.experiments.figure4 import run_figure4

    def sweep():
        run_figure4(
            n_nodes=9,
            distillation_values=(1.0,) if quick else (1.0, 2.0),
            topologies=("cycle",),
            n_requests=8,
            n_consumer_pairs=5,
        )

    return {
        "name": "experiments.figure4-quick",
        "group": "experiments",
        "median_seconds": median_of_k(sweep, repeats=repeats, warmup=warmup),
        "reference_median_seconds": None,
        "speedup": None,
    }


def _obs_benchmark(repeats: int, warmup: int, quick: bool) -> Dict[str, Any]:
    """The telemetry layer's tax on an instrumented trial.

    ``median_seconds`` is one full trial with spans recording; the
    reference is the identical trial with telemetry disabled (the shipped
    default).  The ratio is the observability overhead the docs promise
    stays under 5% -- ``benchmarks/test_bench_obs.py`` asserts it.
    """
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_trial
    from repro.obs.spans import SPAN_BUFFER, enable

    config = ExperimentConfig(
        topology="cycle",
        n_nodes=15 if quick else 25,
        n_consumer_pairs=10 if quick else 35,
        n_requests=12 if quick else 50,
    )

    def instrumented():
        run_trial(config)
        SPAN_BUFFER.clear()

    def plain():
        run_trial(config)

    # An extra warmup absorbs the cold first trial (imports, numpy JIT-ish
    # caches) that would otherwise inflate whichever side runs first.
    warmup = max(warmup, 2)
    enable(False)
    disabled_seconds = median_of_k(plain, repeats=repeats, warmup=warmup)
    enable(True)
    try:
        enabled_seconds = median_of_k(instrumented, repeats=repeats, warmup=warmup)
    finally:
        enable(False)
        SPAN_BUFFER.clear()
    return {
        "name": "obs.span_overhead",
        "group": "obs",
        "median_seconds": enabled_seconds,
        "reference_median_seconds": disabled_seconds,
        "speedup": disabled_seconds / enabled_seconds if enabled_seconds > 0 else None,
    }


def _serve_roundtrip_benchmark(repeats: int, warmup: int, quick: bool) -> Dict[str, Any]:
    """Submit-to-result latency through a live serve daemon on a Unix socket.

    ``median_seconds`` is the cache-hit roundtrip (the submission digest
    matches a finished job, so the daemon answers from its result memo);
    the reference is the cold roundtrip (a fresh ``master_seed`` every
    iteration forces a real computation).  The ratio is what service mode
    buys a client asking an already-answered question.
    """
    import itertools
    import shutil
    import tempfile

    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeDaemon

    sock_dir = tempfile.mkdtemp(prefix="repro-bench-serve-")
    daemon = ServeDaemon(
        socket_path=os.path.join(sock_dir, "bench.sock"),
        workers=1,
        admission_rate=10_000.0,  # admission is not what this benchmark measures
        admission_burst=10_000.0,
    )
    daemon.start()
    fresh_seeds = itertools.count(1)
    params = {"smoke": True, "topologies": ["cycle"]} if quick else {"smoke": True}
    try:
        with ServeClient(daemon.address, client="bench") as client:
            def cold_roundtrip():
                client.run(
                    "figure4", dict(params, master_seed=next(fresh_seeds)), timeout=300
                )

            def hit_roundtrip():
                client.run("figure4", dict(params, master_seed=0), timeout=300)

            cold_seconds = median_of_k(cold_roundtrip, repeats=repeats, warmup=warmup)
            hit_roundtrip()  # populate the memo: every timed call below is a hit
            hit_seconds = median_of_k(hit_roundtrip, repeats=repeats, warmup=warmup)
    finally:
        daemon.shutdown(timeout=120)
        shutil.rmtree(sock_dir, ignore_errors=True)
    return {
        "name": "serve.roundtrip",
        "group": "serve",
        "median_seconds": hit_seconds,
        "reference_median_seconds": cold_seconds,
        "speedup": cold_seconds / hit_seconds if hit_seconds > 0 else None,
    }


def machine_fingerprint() -> Dict[str, Any]:
    """Where this trajectory was measured (wall times are machine-relative)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def git_revision() -> str:
    """The repo's short git revision, or ``"unknown"`` outside a checkout."""
    for root in (Path(__file__).resolve().parents[3], Path.cwd()):
        if not (root / ".git").exists():
            continue
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            )
            return completed.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            continue
    return "unknown"


def run_bench(
    repeats: int = 5, warmup: int = 1, quick: bool = False
) -> Dict[str, Any]:
    """Run the trajectory suite and return the validated BENCH payload."""
    benchmarks = _kernel_benchmarks(repeats, warmup, quick)
    benchmarks.append(_arrivals_benchmark(repeats, warmup, quick))
    benchmarks.append(_balancer_benchmark(repeats, warmup, quick))
    benchmarks.append(_group_ledger_benchmark(repeats, warmup, quick))
    benchmarks.append(_figure4_benchmark(repeats, warmup, quick))
    benchmarks.append(_obs_benchmark(repeats, warmup, quick))
    benchmarks.append(_serve_roundtrip_benchmark(repeats, warmup, quick))
    payload = {
        "schema_version": PERF_SCHEMA_VERSION,
        "kind": "bench",
        "issue": 10,
        "git_rev": git_revision(),
        "kernels_backend": active_backend(),
        "machine": machine_fingerprint(),
        "timing": {"repeats": int(repeats), "warmup": int(warmup), "quick": bool(quick)},
        "benchmarks": benchmarks,
    }
    validate_bench(payload)
    return payload


def kernel_speedups(payload: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """``kernel name -> measured speedup`` from a BENCH payload."""
    return {
        entry["name"][len("kernel.") :]: entry.get("speedup")
        for entry in payload["benchmarks"]
        if entry["group"] == "kernels"
    }


def format_report(payload: Dict[str, Any]) -> str:
    """A terse human rendering of a BENCH payload (the CLI's text output)."""
    lines = [
        f"BENCH trajectory (issue {payload['issue']}, rev {payload['git_rev']}, "
        f"kernels={payload['kernels_backend']}, "
        f"median of {payload['timing']['repeats']} after {payload['timing']['warmup']} warmup)",
        f"{'median':>12}  {'reference':>12}  {'speedup':>8}  benchmark",
    ]
    for entry in payload["benchmarks"]:
        reference = entry.get("reference_median_seconds")
        speedup = entry.get("speedup")
        lines.append(
            f"{entry['median_seconds'] * 1e3:>10.3f}ms  "
            + (f"{reference * 1e3:>10.3f}ms  " if reference is not None else f"{'-':>12}  ")
            + (f"{speedup:>7.1f}x  " if speedup is not None else f"{'-':>8}  ")
            + entry["name"]
        )
    return "\n".join(lines)
