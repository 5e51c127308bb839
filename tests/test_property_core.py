"""Property-based tests for the core data structures and algorithms (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import is_max_min_fair
from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.incremental import IncrementalMaxMinBalancer
from repro.core.maxmin.ledger import PairCountLedger
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_trial
from repro.runtime.sweep import SweepRunner
from repro.protocols.nested import nested_swap_count, sequential_swap_count
from repro.workloads.slo import quantile

from balancer_oracle import OracleBalancer

# ---------------------------------------------------------------------- #
# Ledger invariants under random operation sequences
# ---------------------------------------------------------------------- #
ledger_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=40,
)


class TestLedgerProperties:
    @given(ledger_ops)
    def test_symmetry_and_non_negativity_always_hold(self, operations):
        ledger = PairCountLedger(range(5))
        for op, a, b, amount in operations:
            if a == b:
                continue
            if op == "add":
                ledger.add(a, b, amount)
            else:
                if ledger.count(a, b) >= amount:
                    ledger.remove(a, b, amount)
        for a in range(5):
            for b in range(5):
                assert ledger.count(a, b) == ledger.count(b, a)
                assert ledger.count(a, b) >= 0

    @given(ledger_ops)
    def test_total_pairs_matches_sum_of_counts(self, operations):
        ledger = PairCountLedger(range(5))
        for op, a, b, amount in operations:
            if a == b:
                continue
            if op == "add":
                ledger.add(a, b, amount)
            elif ledger.count(a, b) >= amount:
                ledger.remove(a, b, amount)
        assert ledger.total_pairs() == sum(ledger.nonzero_pairs().values())


# ---------------------------------------------------------------------- #
# Balancer invariants
# ---------------------------------------------------------------------- #
initial_counts = st.dictionaries(
    keys=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda pair: pair[0] < pair[1]),
    values=st.integers(min_value=1, max_value=12),
    min_size=1,
    max_size=8,
)


class TestBalancerProperties:
    @settings(deadline=None, max_examples=40)
    @given(initial_counts, st.integers(min_value=1, max_value=3))
    def test_convergence_reaches_max_min_fixed_point(self, counts, distillation):
        ledger = PairCountLedger(range(6))
        for (a, b), value in counts.items():
            ledger.add(a, b, value)
        balancer = MaxMinBalancer(
            ledger, overheads=float(distillation), rng=np.random.default_rng(0), keep_records=False
        )
        balancer.balance_to_convergence(max_rounds=5000)
        assert is_max_min_fair(balancer)

    @settings(deadline=None, max_examples=40)
    @given(initial_counts, st.integers(min_value=1, max_value=3))
    def test_pair_accounting_exact(self, counts, distillation):
        """Every swap removes exactly D pairs from each donor and adds one pair."""
        ledger = PairCountLedger(range(6))
        total_before = 0
        for (a, b), value in counts.items():
            ledger.add(a, b, value)
            total_before += value
        balancer = MaxMinBalancer(
            ledger, overheads=float(distillation), rng=np.random.default_rng(1), keep_records=False
        )
        balancer.balance_to_convergence(max_rounds=5000)
        total_after = ledger.total_pairs()
        expected_loss = balancer.swaps_performed * (2 * distillation - 1)
        assert total_before - total_after == expected_loss

    @settings(deadline=None, max_examples=40)
    @given(initial_counts, st.integers(min_value=1, max_value=3))
    def test_incremental_engine_reaches_identical_fixed_point(self, counts, distillation):
        """The incremental engine's contract: bit-identical ledger fixed
        points, round counts and swap sequences under the deterministic
        policy, against the per-pair reference enumeration."""
        naive_ledger = PairCountLedger(range(6))
        incremental_ledger = PairCountLedger(range(6))
        for (a, b), value in counts.items():
            naive_ledger.add(a, b, value)
            incremental_ledger.add(a, b, value)
        naive = OracleBalancer(
            naive_ledger,
            overheads=float(distillation),
            rng=np.random.default_rng(0),
        )
        incremental = IncrementalMaxMinBalancer(
            incremental_ledger,
            overheads=float(distillation),
            rng=np.random.default_rng(0),
        )
        naive_rounds = naive.balance_to_convergence(max_rounds=5000)
        incremental_rounds = incremental.balance_to_convergence(max_rounds=5000)
        assert naive_ledger.nonzero_pairs() == incremental_ledger.nonzero_pairs()
        assert naive_rounds == incremental_rounds
        assert naive.records == incremental.records
        assert is_max_min_fair(incremental)

    @settings(deadline=None, max_examples=30)
    @given(initial_counts)
    def test_swaps_never_leave_negative_counts(self, counts):
        ledger = PairCountLedger(range(6))
        for (a, b), value in counts.items():
            ledger.add(a, b, value)
        balancer = MaxMinBalancer(ledger, rng=np.random.default_rng(2), keep_records=False)
        for round_index in range(20):
            balancer.run_round(round_index)
        assert all(count >= 0 for count in ledger.nonzero_pairs().values())


# ---------------------------------------------------------------------- #
# Scenario determinism and balancer equivalence under failures
# ---------------------------------------------------------------------- #
failure_schedule = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10),  # round the failure lands in
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    ).filter(lambda item: item[1] != item[2]),
    max_size=8,
)


def _outcome_key(outcome):
    """The behavioural fingerprint of a trial (nan-safe)."""
    wait = outcome.mean_waiting_rounds
    return (
        outcome.rounds,
        outcome.swaps_performed,
        outcome.requests_satisfied,
        outcome.pairs_generated,
        outcome.pairs_consumed,
        outcome.pairs_remaining,
        sorted(outcome.consumption_by_pair.items()),
        sorted(outcome.swaps_by_node.items()),
        None if wait != wait else wait,
    )


class TestScenarioProperties:
    @settings(deadline=None, max_examples=25)
    @given(initial_counts, failure_schedule, st.integers(min_value=1, max_value=2))
    def test_incremental_fixed_point_identical_under_link_failures(
        self, counts, failures, distillation
    ):
        """Mid-run link failures (ledger invalidations) never make the
        incremental engine's swaps diverge from the naive engine's."""
        naive_ledger = PairCountLedger(range(6))
        incremental_ledger = PairCountLedger(range(6))
        for (a, b), value in counts.items():
            naive_ledger.add(a, b, value)
            incremental_ledger.add(a, b, value)
        naive = OracleBalancer(
            naive_ledger, overheads=float(distillation), rng=np.random.default_rng(0)
        )
        incremental = IncrementalMaxMinBalancer(
            incremental_ledger, overheads=float(distillation), rng=np.random.default_rng(0)
        )
        by_round = {}
        for round_index, a, b in failures:
            by_round.setdefault(round_index, []).append((a, b))
        for round_index in range(12):
            for a, b in by_round.get(round_index, []):
                held = naive_ledger.count(a, b)
                if held and held == incremental_ledger.count(a, b):
                    naive_ledger.remove(a, b, held)
                    incremental_ledger.remove(a, b, held)
            naive.run_round(round_index)
            incremental.run_round(round_index)
        assert naive_ledger.nonzero_pairs() == incremental_ledger.nonzero_pairs()
        assert naive.records == incremental.records

    @settings(deadline=None, max_examples=8)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(
            [
                "link-churn:start=1,period=4,downtime=3,count=4,drop_pairs=true",
                "node-churn:start=2,period=5,downtime=3,count=2",
                "flaky-links:rate=0.05,span=60",
                "demand-drift:start=1,period=4,count=2",
            ]
        ),
    )
    def test_same_seed_same_scenario_means_identical_trials(self, seed, spec):
        """run_trial is a pure function of its config under any scenario."""
        config = ExperimentConfig(
            n_nodes=10,
            n_consumer_pairs=6,
            n_requests=10,
            seed=seed,
            scenario=spec,
            max_rounds=2000,
        )
        assert _outcome_key(run_trial(config)) == _outcome_key(run_trial(config))

    def test_scenario_metrics_identical_across_worker_counts(self):
        """workers=1 and workers=N produce bit-identical scenario sweeps."""
        configs = [
            ExperimentConfig(
                n_nodes=10,
                n_consumer_pairs=6,
                n_requests=10,
                seed=seed,
                balancer=balancer,
                scenario="link-churn:start=1,period=4,downtime=3,count=4,drop_pairs=true",
                max_rounds=2000,
            )
            for seed in (1, 2)
            for balancer in ("naive", "incremental")
        ]
        serial = SweepRunner(n_workers=1).run(configs)
        parallel = SweepRunner(n_workers=2).run(configs)
        assert [_outcome_key(outcome) for outcome in serial] == [
            _outcome_key(outcome) for outcome in parallel
        ]
        # The two engines also agree with each other, failure rounds included.
        assert _outcome_key(serial[0]) == _outcome_key(serial[1])
        assert _outcome_key(serial[2]) == _outcome_key(serial[3])


# ---------------------------------------------------------------------- #
# Nested-swapping cost properties
# ---------------------------------------------------------------------- #
class TestNestedCountProperties:
    @given(st.integers(min_value=1, max_value=64))
    def test_exact_variant_is_hops_minus_one_at_unit_d(self, hops):
        assert nested_swap_count(hops, 1.0) == hops - 1

    @given(st.integers(min_value=1, max_value=20), st.floats(min_value=1.0, max_value=4.0))
    def test_nested_never_worse_than_sequential(self, hops, distillation):
        assert nested_swap_count(hops, distillation) <= sequential_swap_count(hops, distillation) + 1e-9

    @given(st.integers(min_value=2, max_value=20), st.floats(min_value=1.0, max_value=4.0))
    def test_monotone_in_hops(self, hops, distillation):
        assert nested_swap_count(hops, distillation) >= nested_swap_count(hops - 1, distillation)

    @given(st.integers(min_value=2, max_value=16))
    def test_monotone_in_distillation(self, hops):
        values = [nested_swap_count(hops, d) for d in (1.0, 1.5, 2.0, 3.0)]
        assert all(earlier <= later for earlier, later in zip(values, values[1:]))

    @given(st.integers(min_value=1, max_value=20), st.floats(min_value=1.0, max_value=4.0))
    def test_paper_variant_never_exceeds_exact(self, hops, distillation):
        assert nested_swap_count(hops, distillation, variant="paper") <= nested_swap_count(
            hops, distillation, variant="exact"
        )


# ---------------------------------------------------------------------- #
# SLO latency quantiles under arbitrary observations
# ---------------------------------------------------------------------- #
class TestHistogramProperties:
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=200),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantiles_bracket_extremes(self, samples, q):
        assert quantile(samples, 0.0) == pytest.approx(min(samples))
        assert quantile(samples, 1.0) == pytest.approx(max(samples))
        assert min(samples) - 1e-9 <= quantile(samples, 0.5) <= max(samples) + 1e-9
        assert min(samples) - 1e-9 <= quantile(samples, q) <= max(samples) + 1e-9
