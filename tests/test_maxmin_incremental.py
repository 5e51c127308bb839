"""Tests for the ``incremental`` engine (the dense balancer's skip mode).

The engine's contract is *exact equivalence*: same candidate sets, same swap
sequence, same ledger fixed point as the per-pair reference enumeration
(:class:`balancer_oracle.OracleBalancer`) — only fewer turns evaluated.
Most tests here run both on identical ledgers and diff everything
observable; ``test_maxmin_oracle.py`` holds the randomized property suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.fairness import balanced_fixed_point, is_max_min_fair
from repro.core.maxmin import (
    BALANCER_ENGINES,
    GossipKnowledge,
    IncrementalMaxMinBalancer,
    MaxMinBalancer,
    PairCountLedger,
    make_balancer,
)
from repro.core.maxmin.policy import RandomPreferablePolicy
from repro.experiments.scaling import build_scaling_ledger

from balancer_oracle import OracleBalancer


def paired_ledgers(counts, nodes):
    """Two identical ledgers pre-loaded with ``counts``."""
    ledgers = []
    for _ in range(2):
        ledger = PairCountLedger(nodes)
        for (a, b), value in counts.items():
            ledger.add(a, b, value)
        ledgers.append(ledger)
    return ledgers


class TestFactory:
    def test_engine_names(self):
        assert set(BALANCER_ENGINES) == {"naive", "incremental"}
        ledger = PairCountLedger(range(3))
        assert type(make_balancer("naive", ledger)) is MaxMinBalancer
        assert isinstance(make_balancer("incremental", ledger), IncrementalMaxMinBalancer)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            make_balancer("quantum", PairCountLedger(range(3)))


class TestCandidateEquivalence:
    def test_candidates_match_naive_after_random_mutations(self):
        rng = np.random.default_rng(0)
        l1, l2 = paired_ledgers({}, range(8))
        naive = OracleBalancer(l1, rng=np.random.default_rng(1))
        incremental = IncrementalMaxMinBalancer(l2, rng=np.random.default_rng(1))
        for _ in range(300):
            a, b = rng.choice(8, size=2, replace=False)
            a, b = int(a), int(b)
            if rng.random() < 0.65 or l1.count(a, b) == 0:
                amount = int(rng.integers(1, 6))
                l1.add(a, b, amount)
                l2.add(a, b, amount)
            else:
                amount = int(rng.integers(1, l1.count(a, b) + 1))
                l1.remove(a, b, amount)
                l2.remove(a, b, amount)
            node = int(rng.integers(0, 8))
            assert incremental.preferable_candidates(node) == naive.preferable_candidates(node)
        for node in range(8):
            assert incremental.preferable_candidates(node) == naive.preferable_candidates(node)
        assert incremental.has_preferable_swap() == naive.has_preferable_swap()

    def test_swap_records_match_naive(self):
        counts = {(0, 1): 12, (0, 2): 7, (1, 3): 9, (2, 3): 3}
        l1, l2 = paired_ledgers(counts, range(5))
        naive = OracleBalancer(l1, rng=np.random.default_rng(0), keep_records=True)
        incremental = IncrementalMaxMinBalancer(
            l2, rng=np.random.default_rng(0), keep_records=True
        )
        naive.balance_to_convergence()
        incremental.balance_to_convergence()
        assert naive.records == incremental.records
        assert naive.swaps_by_node == incremental.swaps_by_node

    def test_random_policy_equivalent_with_shared_seed(self):
        """Candidate ordering matches naive, so even randomized policies agree."""
        counts = {(0, 1): 15, (0, 2): 11, (0, 3): 9, (1, 2): 2}
        l1, l2 = paired_ledgers(counts, range(5))
        naive = OracleBalancer(
            l1, policy=RandomPreferablePolicy(), rng=np.random.default_rng(3)
        )
        incremental = IncrementalMaxMinBalancer(
            l2, policy=RandomPreferablePolicy(), rng=np.random.default_rng(3)
        )
        for round_index in range(30):
            assert naive.run_round(round_index) == incremental.run_round(round_index)
            assert naive.records == incremental.records
        assert l1.nonzero_pairs() == l2.nonzero_pairs()


class TestKnowledgeHandling:
    def test_gossip_rounds_match_naive(self):
        counts = {(0, 1): 10, (0, 2): 10, (1, 3): 6}
        l1, l2 = paired_ledgers(counts, range(5))
        naive = OracleBalancer(
            l1, knowledge=GossipKnowledge(l1, fanout=2), rng=np.random.default_rng(4)
        )
        incremental = IncrementalMaxMinBalancer(
            l2, knowledge=GossipKnowledge(l2, fanout=2), rng=np.random.default_rng(4)
        )
        for round_index in range(12):
            assert naive.run_round(round_index) == incremental.run_round(round_index)
            assert naive.records == incremental.records
        assert l1.nonzero_pairs() == l2.nonzero_pairs()

    def test_knowledge_reassignment_invalidates_caches(self):
        """The experiment runner swaps in gossip knowledge post-construction."""
        ledger = PairCountLedger(range(4))
        ledger.add(0, 1, 8)
        ledger.add(0, 2, 8)
        balancer = IncrementalMaxMinBalancer(ledger, rng=np.random.default_rng(0))
        assert balancer.preferable_candidates(0)  # cached under global knowledge
        balancer.knowledge = GossipKnowledge(ledger, fanout=1)
        # Fresh gossip knowledge knows nothing, so no candidate may survive.
        assert balancer.preferable_candidates(0) == []
        assert not balancer.has_preferable_swap()


class TestLargeTopologyFixedPoints:
    """Satellite: naive/incremental equivalence on >= 100-node generators."""

    @pytest.mark.parametrize("topology", ["waxman", "grid", "erdos-renyi"])
    def test_fixed_point_equivalence_at_100_nodes(self, topology):
        _, ledger = build_scaling_ledger(
            topology, 100, seed=11, base_pairs=3, hot_fraction=0.02, hot_depth=120
        )
        naive_ledger, naive, naive_rounds = balanced_fixed_point(
            ledger, engine="naive", max_rounds=100_000
        )
        inc_ledger, incremental, inc_rounds = balanced_fixed_point(
            ledger, engine="incremental", max_rounds=100_000
        )
        assert naive_ledger.nonzero_pairs() == inc_ledger.nonzero_pairs()
        assert naive_rounds == inc_rounds
        assert naive.swaps_performed == incremental.swaps_performed
        assert is_max_min_fair(naive) and is_max_min_fair(incremental)

    def test_fixed_point_equivalence_with_distillation(self):
        _, ledger = build_scaling_ledger(
            "waxman", 120, seed=3, base_pairs=5, hot_fraction=0.03, hot_depth=90
        )
        naive_ledger, _, _ = balanced_fixed_point(ledger, overheads=2.0, engine="naive")
        inc_ledger, _, _ = balanced_fixed_point(ledger, overheads=2.0, engine="incremental")
        assert naive_ledger.nonzero_pairs() == inc_ledger.nonzero_pairs()

    def test_balanced_fixed_point_does_not_mutate_input(self):
        _, ledger = build_scaling_ledger("grid", 100, seed=2)
        before = ledger.nonzero_pairs()
        balanced_fixed_point(ledger, engine="incremental")
        assert ledger.nonzero_pairs() == before


class TestExternalMutations:
    def test_generation_and_consumption_between_rounds(self):
        """The protocol mutates the ledger outside run_round; the skip mode must track."""
        rng = np.random.default_rng(9)
        l1, l2 = paired_ledgers({}, range(10))
        naive = OracleBalancer(l1, rng=np.random.default_rng(0))
        incremental = IncrementalMaxMinBalancer(l2, rng=np.random.default_rng(0))
        for round_index in range(25):
            # generation phase: the same random pairs land in both ledgers
            for _ in range(4):
                a, b = rng.choice(10, size=2, replace=False)
                l1.add(int(a), int(b), 2)
                l2.add(int(a), int(b), 2)
            assert naive.run_round(round_index) == incremental.run_round(round_index)
            assert naive.records == incremental.records
            # consumption phase: drain one pair where possible
            pairs = sorted(l1.nonzero_pairs(), key=repr)
            if pairs:
                a, b = pairs[int(rng.integers(0, len(pairs)))]
                if naive.can_consume(a, b):
                    assert incremental.can_consume(a, b)
                    naive.consume(a, b)
                    incremental.consume(a, b)
        assert l1.nonzero_pairs() == l2.nonzero_pairs()
