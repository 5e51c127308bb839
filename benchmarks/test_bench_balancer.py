"""Benchmark: the dense balancing engine on large topologies.

Two claims are kept honest here:

* on a 500-node topology with a provisioning imbalance (deep buffers on a
  few hot edges draining into a lightly-stocked network), the engine's
  skip mode (``incremental``) converges at least **10x** faster than the
  per-pair reference enumeration it replaced (the test oracle in
  ``tests/balancer_oracle.py``, run on the nested-dict store of
  ``tests/ledger_oracle.py`` that the count matrix replaced), and
* the speedup is *free*: both reach bit-identical ledger fixed points,
  swap counts and round counts under the deterministic policy.

The scaling experiment (``python -m repro scaling``) prints the
naive-vs-incremental numbers across the full Waxman/grid/Erdős–Rényi sweep.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.fairness import balanced_fixed_point
from repro.core.maxmin import IncrementalMaxMinBalancer, MaxMinBalancer
from repro.experiments.registry import get_experiment
from repro.experiments.scaling import build_scaling_ledger

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from balancer_oracle import OracleBalancer  # noqa: E402
from ledger_oracle import DictPairCountLedger  # noqa: E402

#: The benchmark's 500-node workload: background of 1-2 pairs per edge,
#: ~0.6% of edges holding 500-pair buffers.  The long redistribution tail
#: (few active nodes, many rounds) is exactly where full rescans hurt.
WORKLOAD = dict(base_pairs=2, hot_fraction=0.006, hot_depth=500)


def _oracle_fixed_point(ledger, seed: int = 1, max_rounds: int = 200_000):
    """``balanced_fixed_point`` with the reference oracle, on the dict store, as the engine."""
    working = DictPairCountLedger.from_ledger(ledger)
    oracle = OracleBalancer(working, rng=np.random.default_rng(seed), keep_records=False)
    return working, oracle, oracle.balance_to_convergence(max_rounds=max_rounds)


def test_incremental_engine_10x_on_500_node_topology(median_time):
    """Acceptance criterion: >= 10x over the oracle on a 500-node topology, same physics."""
    _, ledger = build_scaling_ledger("waxman", 500, seed=1, **WORKLOAD)
    results = {}

    def oracle():
        results["oracle"] = _oracle_fixed_point(ledger)

    def skip_mode():
        results["incremental"] = balanced_fixed_point(
            ledger, engine="incremental", max_rounds=200_000, seed=1
        )

    oracle_seconds = median_time(oracle, repeats=3, warmup=0)
    fast_seconds = median_time(skip_mode, repeats=3)
    oracle_ledger, oracle_balancer, oracle_rounds = results["oracle"]
    fast_ledger, fast, fast_rounds = results["incremental"]

    assert fast_ledger.nonzero_pairs() == oracle_ledger.nonzero_pairs()
    assert (fast_rounds, fast.swaps_performed) == (oracle_rounds, oracle_balancer.swaps_performed)
    speedup = oracle_seconds / fast_seconds
    print(f"\n500-node waxman: oracle {oracle_seconds:.2f} s, "
          f"incremental {fast_seconds:.3f} s ({speedup:.1f}x)")
    assert speedup >= 10, f"incremental engine only {speedup:.1f}x faster than the oracle"


def test_incremental_engine_scales_to_1000_nodes():
    """The regime the naive engine cannot reach in CI time: 1000 nodes."""
    graph, ledger = build_scaling_ledger("waxman", 1000, seed=1, **WORKLOAD)
    balancer = IncrementalMaxMinBalancer(
        ledger, rng=np.random.default_rng(0), keep_records=False
    )
    start = time.perf_counter()
    rounds = balancer.balance_to_convergence(max_rounds=200_000)
    elapsed = time.perf_counter() - start
    print(f"\n1000-node waxman: converged in {rounds} rounds / "
          f"{balancer.swaps_performed} swaps, {elapsed:.2f} s")
    assert not balancer.has_preferable_swap()
    assert elapsed < 30.0


def test_grid_and_erdos_renyi_cells_agree():
    """The other two topology families: identical fixed points, reported speedup."""
    result = get_experiment("scaling").run(
        topologies=("grid", "erdos-renyi"),
        sizes=(200,),
        **WORKLOAD,
    )
    print()
    print(result.format_report())
    for topology in ("grid", "erdos-renyi"):
        naive = result.row_for(topology, 200, "naive")
        incremental = result.row_for(topology, 200, "incremental")
        assert (naive.rounds, naive.swaps) == (incremental.rounds, incremental.swaps)


def test_dense_engine_matches_oracle_enumeration():
    """Both modes list exactly the oracle's candidates, in its order."""
    _, ledger = build_scaling_ledger("erdos-renyi", 150, seed=7, **WORKLOAD)
    oracle = OracleBalancer(ledger.copy(), rng=np.random.default_rng(0))
    naive = MaxMinBalancer(ledger.copy(), rng=np.random.default_rng(0))
    incremental = IncrementalMaxMinBalancer(ledger.copy(), rng=np.random.default_rng(0))
    for node in ledger.nodes:
        expected = oracle.preferable_candidates(node)
        assert naive.preferable_candidates(node) == expected
        assert incremental.preferable_candidates(node) == expected
