"""Benchmark for the runtime layer's sweep cache.

A cached sweep re-run costs a fixed lookup overhead per cell, not a
simulation.
"""

from __future__ import annotations

import time

from repro.experiments.figure4 import figure4_configs
from repro.runtime import ResultCache, SweepRunner


def test_cached_sweep_rerun_skips_all_simulation(tmp_path, benchmark):
    """A warm cache turns a sweep into pure lookups (zero recomputed trials)."""
    configs = figure4_configs(
        n_nodes=9,
        distillation_values=(1.0, 2.0),
        topologies=("cycle", "grid"),
        n_requests=10,
        n_consumer_pairs=5,
    )
    cache = ResultCache(tmp_path)
    runner = SweepRunner(n_workers=1, cache=cache)

    start = time.perf_counter()
    runner.run_with_report(configs)
    cold_seconds = time.perf_counter() - start

    report = benchmark.pedantic(
        lambda: runner.run_with_report(configs), rounds=3, iterations=1
    )
    start = time.perf_counter()
    runner.run_with_report(configs)
    warm_seconds = time.perf_counter() - start

    print(f"\nsweep of {len(configs)} cells: cold {cold_seconds*1e3:.0f} ms, "
          f"warm {warm_seconds*1e3:.1f} ms")
    assert report.n_computed == 0 and report.n_cached == len(configs)
    assert warm_seconds < cold_seconds
