"""Tests for the max-min balancing algorithm (the paper's Section 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.knowledge import GossipKnowledge
from repro.core.maxmin.ledger import PairCountLedger


def make_balancer(counts, overheads=1.0, nodes=None, **kwargs):
    """Build a balancer over a ledger pre-loaded with ``counts``."""
    all_nodes = set(nodes or [])
    for (a, b) in counts:
        all_nodes.update((a, b))
    ledger = PairCountLedger(sorted(all_nodes, key=repr))
    for (a, b), value in counts.items():
        ledger.add(a, b, value)
    kwargs.setdefault("rng", np.random.default_rng(0))
    return MaxMinBalancer(ledger, overheads=overheads, **kwargs)


class TestPreferableCondition:
    def test_paper_condition_holds(self):
        # C_x(y) = 4, C_x(y') = 3, C_y(y') = 1, D = 1:
        # 1 + 1 <= min(4-1, 3-1) = 2  -> preferable.
        balancer = make_balancer({(0, 1): 4, (0, 2): 3, (1, 2): 1})
        assert balancer.is_preferable(0, 1, 2)

    def test_not_preferable_when_recipient_too_high(self):
        # C_y(y') = 2: 2 + 1 > min(3, 2) -> not preferable.
        balancer = make_balancer({(0, 1): 4, (0, 2): 3, (1, 2): 2})
        assert not balancer.is_preferable(0, 1, 2)

    def test_not_preferable_without_enough_donor_pairs(self):
        balancer = make_balancer({(0, 1): 1, (0, 2): 1}, overheads=2.0)
        assert not balancer.is_preferable(0, 1, 2)

    def test_distillation_raises_the_bar(self):
        counts = {(0, 1): 3, (0, 2): 3, (1, 2): 1}
        assert make_balancer(dict(counts), overheads=1.0).is_preferable(0, 1, 2)
        assert not make_balancer(dict(counts), overheads=2.0).is_preferable(0, 1, 2)

    def test_degenerate_candidates_rejected(self):
        balancer = make_balancer({(0, 1): 4, (0, 2): 4})
        assert not balancer.is_preferable(0, 1, 1)
        assert not balancer.is_preferable(0, 0, 1)

    def test_zero_recipient_count_is_most_attractive(self):
        balancer = make_balancer({(0, 1): 5, (0, 2): 5, (0, 3): 5, (1, 2): 3})
        candidates = balancer.preferable_candidates(0)
        chosen = balancer.policy.choose(candidates, balancer.rng)
        # The pair with zero existing count (e.g. (1,3) or (2,3)) wins over (1,2).
        assert chosen.recipient_count == 0


class TestSwapExecution:
    def test_counts_updated_per_paper_accounting(self):
        balancer = make_balancer({(0, 1): 4, (0, 2): 3, (1, 2): 1}, overheads=1.0)
        assert len(balancer.preferable_candidates(0)) == 1
        balancer.run_node(0, round_index=7)
        ledger = balancer.ledger
        assert ledger.count(0, 1) == 3
        assert ledger.count(0, 2) == 2
        assert ledger.count(1, 2) == 2
        assert balancer.swaps_performed == 1
        assert balancer.swaps_by_node[0] == 1
        assert balancer.records[0].round_index == 7
        assert balancer.records[0].produced_pair == (1, 2)

    def test_distillation_consumes_d_pairs_per_side(self):
        balancer = make_balancer({(0, 1): 6, (0, 2): 6}, overheads=2.0)
        balancer.run_node(0)
        assert balancer.ledger.count(0, 1) == 4
        assert balancer.ledger.count(0, 2) == 4
        assert balancer.ledger.count(1, 2) == 1

    def test_total_pairs_decrease_by_2d_minus_1(self):
        for distillation in (1.0, 2.0, 3.0):
            balancer = make_balancer({(0, 1): 10, (0, 2): 10}, overheads=distillation)
            before = balancer.ledger.total_pairs()
            balancer.run_node(0)
            after = balancer.ledger.total_pairs()
            assert before - after == 2 * int(distillation) - 1

    def test_keep_records_false(self):
        balancer = make_balancer({(0, 1): 4, (0, 2): 4}, keep_records=False)
        balancer.run_node(0)
        assert balancer.records == []
        assert balancer.swaps_performed == 1


class TestRounds:
    def test_run_node_respects_rate(self):
        balancer = make_balancer({(0, 1): 20, (0, 2): 20}, swaps_per_node_per_round=3)
        assert balancer.run_node(0) == 3
        assert len(balancer.records) == 3

    def test_run_node_stops_when_nothing_preferable(self):
        balancer = make_balancer({(0, 1): 1, (0, 2): 1}, swaps_per_node_per_round=5)
        assert balancer.run_node(0) == 0

    def test_run_round_rotates_over_all_nodes(self):
        balancer = make_balancer({(0, 1): 6, (1, 2): 6, (2, 3): 6})
        performed = balancer.run_round(0)
        assert performed >= 1
        assert len(balancer.records) == performed
        repeaters = {record.repeater for record in balancer.records}
        assert repeaters <= set(balancer.ledger.nodes)

    def test_invalid_swap_rate(self):
        with pytest.raises(ValueError):
            make_balancer({(0, 1): 2}, swaps_per_node_per_round=0)

    def test_float_overheads_accepted_as_uniform(self):
        balancer = make_balancer({(0, 1): 4}, overheads=2.5)
        assert isinstance(balancer.overheads, PairOverheads)
        assert balancer.distillation_cost(0, 1) == 3  # ceil(2.5)


class TestConvergence:
    def test_convergence_reaches_max_min_state(self):
        balancer = make_balancer({(0, 1): 12, (1, 2): 12}, nodes=[0, 1, 2, 3])
        balancer.balance_to_convergence()
        assert not balancer.has_preferable_swap()

    def test_convergence_spreads_from_hot_edge(self):
        # All pairs initially on one edge of a triangle; balancing must move
        # some of them onto the other two sides.
        balancer = make_balancer({(0, 1): 9, (1, 2): 9}, nodes=[0, 1, 2])
        balancer.balance_to_convergence()
        counts = balancer.ledger.nonzero_pairs()
        assert counts.get((0, 2), 0) > 0
        spread = max(counts.values()) - min(counts.values())
        assert spread <= 2

    def test_convergence_with_nothing_to_do(self):
        balancer = make_balancer({(0, 1): 1, (1, 2): 1})
        assert balancer.balance_to_convergence() == 0

    def test_convergence_guard_raises(self):
        balancer = make_balancer({(0, 1): 500, (1, 2): 500})
        with pytest.raises(RuntimeError):
            balancer.balance_to_convergence(max_rounds=1)


class TestConsumption:
    def test_can_consume_and_consume(self):
        balancer = make_balancer({(0, 1): 3}, overheads=2.0)
        assert balancer.can_consume(0, 1)
        removed = balancer.consume(0, 1)
        assert removed == 2
        assert balancer.ledger.count(0, 1) == 1
        assert not balancer.can_consume(0, 1)

    def test_consume_insufficient_raises(self):
        balancer = make_balancer({(0, 1): 1}, overheads=2.0)
        with pytest.raises(ValueError):
            balancer.consume(0, 1)


class TestWithGossipKnowledge:
    def test_unknown_recipient_blocks_candidate(self):
        ledger = PairCountLedger([0, 1, 2, 3])
        ledger.add(0, 1, 5)
        ledger.add(0, 2, 5)
        knowledge = GossipKnowledge(ledger, fanout=1)
        balancer = MaxMinBalancer(ledger, knowledge=knowledge, rng=np.random.default_rng(0))
        # Before any gossip refresh node 0 knows nothing about C_1(2).
        assert balancer.preferable_candidates(0) == []

    def test_after_refresh_candidates_appear(self):
        ledger = PairCountLedger([0, 1, 2])
        ledger.add(0, 1, 5)
        ledger.add(0, 2, 5)
        knowledge = GossipKnowledge(ledger, fanout=2)
        balancer = MaxMinBalancer(ledger, knowledge=knowledge, rng=np.random.default_rng(0))
        balancer.run_round(0)  # refresh happens at the start of the round
        assert balancer.swaps_performed >= 1
