"""Tests for the hybrid planner (§6) and the nested-swapping cost model."""

from __future__ import annotations

import itertools

import pytest

from repro.core.hybrid import HybridPlanner, shortest_entanglement_path
from repro.core.maxmin.ledger import PairCountLedger
from repro.protocols.nested import (
    execute_nested,
    nested_schedule,
    nested_swap_count,
    required_link_pairs,
    sequential_swap_count,
)


def chain_ledger(n_nodes: int, count: int) -> PairCountLedger:
    """A ledger with ``count`` pairs on every edge of a line 0-1-...-(n-1)."""
    ledger = PairCountLedger(range(n_nodes))
    for node in range(n_nodes - 1):
        ledger.add(node, node + 1, count)
    return ledger


class TestNestedSwapCount:
    def test_single_hop_needs_no_swaps(self):
        assert nested_swap_count(1, 1.0) == 0
        assert nested_swap_count(1, 5.0) == 0

    def test_two_hops_needs_d_swaps(self):
        assert nested_swap_count(2, 1.0) == 1
        assert nested_swap_count(2, 3.0) == 3
        # The paper's literal recurrence agrees at n = 2.
        assert nested_swap_count(2, 3.0, variant="paper") == 3

    @pytest.mark.parametrize("hops", range(1, 12))
    def test_exact_variant_equals_hops_minus_one_at_d1(self, hops):
        assert nested_swap_count(hops, 1.0) == hops - 1

    def test_paper_variant_undercounts_at_d1(self):
        # Documented deviation: the literal recurrence gives s(3) = 1 at D = 1.
        assert nested_swap_count(3, 1.0, variant="paper") == 1
        assert nested_swap_count(3, 1.0, variant="exact") == 2

    def test_grows_with_distillation(self):
        assert nested_swap_count(8, 3.0) > nested_swap_count(8, 2.0) > nested_swap_count(8, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            nested_swap_count(0, 1.0)
        with pytest.raises(ValueError):
            nested_swap_count(3, 0.5)
        with pytest.raises(ValueError):
            nested_swap_count(3, 1.0, variant="approximate")

    def test_sequential_equals_nested_at_d1(self):
        for hops in range(1, 10):
            assert sequential_swap_count(hops, 1.0) == nested_swap_count(hops, 1.0)

    def test_sequential_worse_than_nested_for_high_d(self):
        assert sequential_swap_count(8, 3.0) > nested_swap_count(8, 3.0)

    def test_sequential_validation(self):
        with pytest.raises(ValueError):
            sequential_swap_count(0, 1.0)
        with pytest.raises(ValueError):
            sequential_swap_count(2, 0.9)


class TestNestedSchedule:
    def test_schedule_length(self):
        path = [0, 1, 2, 3, 4]
        assert len(nested_schedule(path)) == len(path) - 2

    def test_schedule_repeaters_are_interior(self):
        path = [0, 1, 2, 3, 4, 5]
        repeaters = [step[0] for step in nested_schedule(path)]
        assert set(repeaters) == {1, 2, 3, 4}

    def test_final_step_joins_endpoints(self):
        path = [0, 1, 2, 3]
        assert nested_schedule(path)[-1][1:] == (0, 3)

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            nested_schedule([0])


class TestRequiredLinkPairs:
    def test_single_hop(self):
        assert required_link_pairs([0, 1], 2.0) == {(0, 1): 2}

    def test_unit_distillation_needs_one_pair_per_link(self):
        needs = required_link_pairs([0, 1, 2, 3, 4], 1.0)
        assert all(amount == 1 for amount in needs.values())
        assert len(needs) == 4

    def test_requirements_grow_multiplicatively_with_d(self):
        needs = required_link_pairs([0, 1, 2, 3, 4], 2.0)
        assert max(needs.values()) >= 4  # at least D^2 on the deepest links


class TestExecuteNested:
    def test_insufficient_pairs_returns_none_without_mutation(self):
        ledger = chain_ledger(4, 1)
        before = ledger.nonzero_pairs()
        assert execute_nested(ledger, [0, 1, 2, 3], 2.0) is None
        assert ledger.nonzero_pairs() == before

    def test_execution_consumes_exactly_the_requirements(self):
        ledger = chain_ledger(5, 10)
        needs = required_link_pairs([0, 1, 2, 3, 4], 2.0)
        records = execute_nested(ledger, [0, 1, 2, 3, 4], 2.0)
        assert records is not None
        for edge, amount in needs.items():
            assert ledger.count(*edge) == 10 - amount

    def test_swap_count_matches_exact_recurrence(self):
        for distillation in (1.0, 2.0, 3.0):
            hops = 4
            ledger = chain_ledger(hops + 1, 200)
            records = execute_nested(ledger, list(range(hops + 1)), distillation)
            assert records is not None
            assert len(records) == nested_swap_count(hops, distillation)

    def test_single_hop_consumes_d_pairs_no_swaps(self):
        ledger = chain_ledger(2, 5)
        records = execute_nested(ledger, [0, 1], 3.0)
        assert records == []
        assert ledger.count(0, 1) == 2


class TestEntanglementGraph:
    def test_shortest_entanglement_path(self):
        ledger = chain_ledger(5, 1)
        ledger.add(0, 3, 1)  # a long shortcut edge created by earlier balancing
        assert shortest_entanglement_path(ledger, 0, 4) == [0, 3, 4]
        # The direct edge is never the path: it is short of pairs.
        assert shortest_entanglement_path(ledger, 0, 3) == [0, 1, 2, 3]
        assert shortest_entanglement_path(ledger, 0, 0) == [0]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
    def test_equal_length_paths_tie_break_by_repr(self, order):
        """0-2-3 and 0-10-3 are equally short; "10" < "2" picks 0-10-3
        whatever order the pairs arrive in."""
        pairs = [(0, 2), (2, 3), (0, 10), (10, 3)]
        ledger = PairCountLedger([0, 10, 2, 3])
        for index in order:
            ledger.add(*pairs[index])
        assert shortest_entanglement_path(ledger, 0, 3) == [0, 10, 3]

    def test_unreachable_returns_none(self):
        ledger = PairCountLedger([0, 1, 2])
        ledger.add(0, 1, 1)
        assert shortest_entanglement_path(ledger, 0, 2) is None


class TestHybridPlanner:
    def test_already_available_pair_needs_no_swaps(self):
        ledger = chain_ledger(3, 3)
        ledger.add(0, 2, 2)
        planner = HybridPlanner(ledger, overheads=2.0)
        assert planner.try_satisfy(0, 2) == []
        assert planner.swaps_performed == 0

    def test_builds_missing_pair_at_d1(self):
        ledger = chain_ledger(4, 2)
        planner = HybridPlanner(ledger, overheads=1.0)
        records = planner.try_satisfy(0, 3)
        assert records is not None and len(records) == 2
        assert ledger.count(0, 3) == 1
        assert planner.requests_completed == 1

    def test_declines_when_pairs_insufficient(self):
        ledger = chain_ledger(4, 1)
        planner = HybridPlanner(ledger, overheads=2.0)
        before = ledger.nonzero_pairs()
        assert planner.try_satisfy(0, 3) is None
        assert ledger.nonzero_pairs() == before
        assert planner.requests_declined == 1

    def test_tops_up_a_direct_edge_short_of_d_over_two_hops(self):
        ledger = chain_ledger(3, 4)
        ledger.add(0, 2, 1)  # one direct pair; D=2 needs two
        planner = HybridPlanner(ledger, overheads=2.0)
        records = planner.try_satisfy(0, 2)
        assert [record.repeater for record in records] == [1]
        assert ledger.count(0, 2) == 2
        assert ledger.count(0, 1) == ledger.count(1, 2) == 2
        assert planner.requests_completed == 1

    def test_a_short_direct_edge_alone_is_declined(self):
        ledger = PairCountLedger([0, 1, 2])
        ledger.add(0, 2, 1)
        planner = HybridPlanner(ledger, overheads=2.0)
        assert planner.try_satisfy(0, 2) is None
        assert ledger.count(0, 2) == 1
        assert (planner.requests_completed, planner.requests_declined) == (0, 1)

    def test_builds_with_distillation_when_enough_pairs(self):
        ledger = chain_ledger(3, 8)
        planner = HybridPlanner(ledger, overheads=2.0)
        records = planner.try_satisfy(0, 2)
        assert records is not None
        assert ledger.count(0, 2) >= 2  # enough for one D=2 consumption

    def test_uses_shortcut_edges(self):
        ledger = PairCountLedger(range(6))
        # Generation-graph-style chain plus a long entanglement shortcut 0-4.
        for node in range(5):
            ledger.add(node, node + 1, 1)
        ledger.add(0, 4, 1)
        planner = HybridPlanner(ledger, overheads=1.0)
        records = planner.try_satisfy(0, 5)
        assert records is not None
        assert len(records) == 1  # one swap at node 4 using the shortcut

    def test_max_path_hops_limit(self):
        ledger = chain_ledger(6, 3)
        planner = HybridPlanner(ledger, overheads=1.0, max_path_hops=2)
        assert planner.try_satisfy(0, 5) is None

    def test_declines_when_no_path(self):
        ledger = PairCountLedger([0, 1, 2])
        ledger.add(0, 1, 1)
        planner = HybridPlanner(ledger, overheads=1.0)
        assert planner.try_satisfy(0, 2) is None
