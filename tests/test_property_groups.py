"""Property-based equivalence suite for the group-keyed core (hypothesis).

The group-keyed refactor's contract is that size-2 groups are *the same
thing* as pairs, not merely similar: driving a ledger through the group API
with 2-element keys must be bit-identical to driving it through the
historical pair API — same counts, same mutated-index log entries, same
incremental-balancer swaps, same RNG stream consumption.
These tests pin that contract under random operation sequences so any
future divergence between the two key spaces fails loudly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.maxmin.incremental import IncrementalMaxMinBalancer
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.topology import group_key

from balancer_oracle import OracleBalancer

ledger_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=40,
)

#: Interleaved GHZ-group mutations (k >= 3) that must never perturb the
#: pair-keyed state or the balancer's swap decisions.
ghz_ops = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.sets(st.integers(min_value=0, max_value=5), min_size=3, max_size=4),
        st.integers(min_value=1, max_value=2),
    ),
    max_size=12,
)

initial_counts = st.dictionaries(
    keys=st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda pair: pair[0] < pair[1]),
    values=st.integers(min_value=1, max_value=12),
    min_size=1,
    max_size=8,
)


def _apply_pairwise(ledger: PairCountLedger, operations) -> None:
    for op, a, b, amount in operations:
        if a == b:
            continue
        if op == "add":
            ledger.add(a, b, amount)
        elif ledger.count(a, b) >= amount:
            ledger.remove(a, b, amount)


def _apply_groupwise(ledger: PairCountLedger, operations) -> None:
    for op, a, b, amount in operations:
        if a == b:
            continue
        key = group_key(a, b)
        if op == "add":
            ledger.add_group(key, amount)
        elif ledger.group_count(*key) >= amount:
            ledger.remove_group(key, amount)


class TestGroupLedgerEquivalence:
    @given(ledger_ops)
    def test_size2_group_api_is_bit_identical_to_pair_api(self, operations):
        pair_ledger = PairCountLedger(range(5))
        group_ledger = PairCountLedger(range(5))
        _apply_pairwise(pair_ledger, operations)
        _apply_groupwise(group_ledger, operations)
        assert pair_ledger.nonzero_pairs() == group_ledger.nonzero_pairs()
        assert pair_ledger.total_pairs() == group_ledger.total_pairs()
        for a in range(5):
            for b in range(5):
                if a == b:
                    continue
                assert pair_ledger.count(a, b) == group_ledger.count(a, b)
                assert group_ledger.count(a, b) == group_ledger.group_count(a, b)

    @given(ledger_ops)
    def test_group_api_logs_like_the_pair_api(self, operations):
        """Size-2 group mutations reach the mutated-index log as pair mutations."""
        pair_ledger = PairCountLedger(range(5))
        group_ledger = PairCountLedger(range(5))
        pair_ledger.mutated, group_ledger.mutated = [], []
        _apply_pairwise(pair_ledger, operations)
        _apply_groupwise(group_ledger, operations)
        def logged_pairs(log):
            return [tuple(sorted(pair)) for pair in zip(log[0::2], log[1::2])]

        assert logged_pairs(group_ledger.mutated) == logged_pairs(pair_ledger.mutated)

    @given(ledger_ops, ghz_ops)
    def test_ghz_groups_never_leak_into_pair_state(self, operations, group_operations):
        """k>=3 group mutations live in their own key space: the pair table,
        the mutated-index log and nonzero_pairs() are untouched by them."""
        plain = PairCountLedger(range(6))
        mixed = PairCountLedger(range(6))
        mixed.mutated = []
        _apply_pairwise(plain, operations)
        _apply_pairwise(mixed, operations)
        baseline_log = list(mixed.mutated)
        for op, members, amount in group_operations:
            key = group_key(*sorted(members))
            if op == "add":
                mixed.add_group(key, amount)
            elif mixed.group_count(*key) >= amount:
                mixed.remove_group(key, amount)
        assert mixed.nonzero_pairs() == plain.nonzero_pairs()
        assert mixed.total_pairs() == plain.total_pairs()
        assert mixed.mutated == baseline_log
        ghz_keys = [key for key in mixed.nonzero_groups() if len(key) > 2]
        for key in ghz_keys:
            assert mixed.group_count(*key) > 0

    @given(ledger_ops)
    def test_copy_preserves_group_counts(self, operations):
        ledger = PairCountLedger(range(5))
        _apply_groupwise(ledger, operations)
        ledger.add_group(group_key(0, 1, 2), 3)
        duplicate = ledger.copy()
        assert duplicate.nonzero_groups() == ledger.nonzero_groups()
        duplicate.remove_group(group_key(0, 1, 2), 1)
        assert ledger.group_count(0, 1, 2) == 3


class TestIncrementalGroupSubscription:
    @settings(deadline=None, max_examples=40)
    @given(initial_counts, st.integers(min_value=1, max_value=3))
    def test_group_fed_incremental_matches_pair_fed_naive(self, counts, distillation):
        """An incremental balancer watching a group-API-driven ledger reaches
        the same fixed point, records, round count AND RNG state as a naive
        balancer over a pair-API-driven ledger."""
        naive_ledger = PairCountLedger(range(6))
        group_ledger = PairCountLedger(range(6))
        for (a, b), value in counts.items():
            naive_ledger.add(a, b, value)
            group_ledger.add_group(group_key(a, b), value)
        naive = OracleBalancer(
            naive_ledger, overheads=float(distillation), rng=np.random.default_rng(0)
        )
        incremental = IncrementalMaxMinBalancer(
            group_ledger, overheads=float(distillation), rng=np.random.default_rng(0)
        )
        naive_rounds = naive.balance_to_convergence(max_rounds=5000)
        incremental_rounds = incremental.balance_to_convergence(max_rounds=5000)
        assert naive_ledger.nonzero_pairs() == group_ledger.nonzero_pairs()
        assert naive_rounds == incremental_rounds
        assert naive.records == incremental.records
        # Identical RNG stream consumption: the engines drew the same number
        # of variates from identical generators, so their states coincide.
        assert naive.rng.bit_generator.state == incremental.rng.bit_generator.state

    @settings(deadline=None, max_examples=30)
    @given(initial_counts, ghz_ops, st.integers(min_value=1, max_value=2))
    def test_ghz_mutations_do_not_disturb_the_dirty_set(
        self, counts, group_operations, distillation
    ):
        """Interleaving k>=3 group mutations between balancing rounds must
        not change a single swap decision: GHZ states are not swap donors or
        recipients, so the incremental engine never sees them."""
        plain_ledger = PairCountLedger(range(6))
        mixed_ledger = PairCountLedger(range(6))
        for (a, b), value in counts.items():
            plain_ledger.add(a, b, value)
            mixed_ledger.add(a, b, value)
        plain = IncrementalMaxMinBalancer(
            plain_ledger,
            overheads=float(distillation),
            rng=np.random.default_rng(0),
        )
        mixed = IncrementalMaxMinBalancer(
            mixed_ledger,
            overheads=float(distillation),
            rng=np.random.default_rng(0),
        )
        ghz = list(group_operations)
        for round_index in range(12):
            if ghz:
                op, members, amount = ghz.pop()
                key = group_key(*sorted(members))
                if op == "add":
                    mixed_ledger.add_group(key, amount)
                elif mixed_ledger.group_count(*key) >= amount:
                    mixed_ledger.remove_group(key, amount)
            plain.run_round(round_index)
            mixed.run_round(round_index)
        assert plain_ledger.nonzero_pairs() == mixed_ledger.nonzero_pairs()
        assert plain.records == mixed.records
        assert plain.rng.bit_generator.state == mixed.rng.bit_generator.state

    @given(initial_counts)
    def test_ghz_mutations_stay_off_the_log(self, counts):
        """The skip mode's log records pair mutations only."""
        ledger = PairCountLedger(range(6))
        balancer = IncrementalMaxMinBalancer(ledger, rng=np.random.default_rng(0))
        assert ledger.mutated == []
        ledger.add_group(group_key(0, 1, 2), 2)
        ledger.remove_group(group_key(0, 1, 2), 1)
        assert ledger.mutated == []
        for (a, b), value in counts.items():
            ledger.add(a, b, value)
        assert len(ledger.mutated) == 2 * len(counts)
        assert balancer.has_preferable_swap() == OracleBalancer(ledger.copy()).has_preferable_swap()
        assert ledger.mutated == []  # drained into the dirty marks
