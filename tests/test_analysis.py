"""Tests for the analysis layer (overhead metric, fairness, starvation, reporting)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.fairness import (
    count_imbalance,
    is_max_min_fair,
    jains_index,
    lexicographic_min,
    per_consumer_service,
)
from repro.analysis.overhead import (
    optimal_swaps_for_requests,
    request_path_lengths,
    swap_overhead,
    swap_overhead_from_result,
)
from repro.analysis.reporting import format_table, render_series
from repro.analysis.starvation import starvation_report
from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.demand import ConsumptionRequest
from repro.network.topologies import cycle_topology
from repro.protocols.base import ProtocolResult
from repro.protocols.nested import nested_swap_count


def make_result(swaps, requests):
    return ProtocolResult(
        protocol="test",
        topology="cycle",
        n_nodes=8,
        rounds=10,
        swaps_performed=swaps,
        requests_total=len(requests),
        requests_satisfied=len(requests),
        pairs_generated=0,
        pairs_consumed=0,
        pairs_remaining=0,
        satisfied_requests=requests,
    )


class TestOverheadMetric:
    def test_path_lengths(self):
        topology = cycle_topology(8)
        requests = [ConsumptionRequest(0, (0, 3)), ConsumptionRequest(1, (0, 4))]
        assert request_path_lengths(topology, requests) == [3, 4]

    def test_disconnected_pair_rejected(self):
        from repro.network.topology import Topology

        topology = Topology("d", nodes=[0, 1, 2])
        topology.add_edge(0, 1)
        with pytest.raises(ValueError):
            request_path_lengths(topology, [ConsumptionRequest(0, (0, 2))])

    def test_optimal_swaps_sum(self):
        topology = cycle_topology(8)
        requests = [ConsumptionRequest(0, (0, 3)), ConsumptionRequest(1, (0, 4))]
        expected = nested_swap_count(3, 2.0) + nested_swap_count(4, 2.0)
        assert optimal_swaps_for_requests(topology, requests, 2.0) == pytest.approx(expected)

    def test_swap_overhead_ratio(self):
        assert swap_overhead(10, 5.0) == pytest.approx(2.0)

    def test_swap_overhead_degenerate_cases(self):
        assert swap_overhead(0, 0.0) == 1.0
        assert math.isinf(swap_overhead(3, 0.0))
        with pytest.raises(ValueError):
            swap_overhead(-1, 1.0)

    def test_breakdown_from_result(self):
        topology = cycle_topology(8)
        requests = [ConsumptionRequest(0, (0, 4), issued_round=0, satisfied_round=2)]
        result = make_result(swaps=6, requests=requests)
        breakdown = swap_overhead_from_result(topology, result, distillation=1.0)
        assert breakdown.optimal_swaps == pytest.approx(3.0)
        assert breakdown.overhead == pytest.approx(2.0)
        assert breakdown.satisfied_requests == 1
        assert breakdown.path_lengths == [4]

    def test_breakdown_respects_variant(self):
        topology = cycle_topology(8)
        requests = [ConsumptionRequest(0, (0, 3))]
        result = make_result(swaps=4, requests=requests)
        exact = swap_overhead_from_result(topology, result, distillation=1.0, variant="exact")
        paper = swap_overhead_from_result(topology, result, distillation=1.0, variant="paper")
        assert paper.overhead > exact.overhead  # the paper denominator is smaller


class TestFairness:
    def test_jains_index_extremes(self):
        assert jains_index([3, 3, 3]) == pytest.approx(1.0)
        assert jains_index([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jains_index([0, 0]) == 1.0
        with pytest.raises(ValueError):
            jains_index([])
        with pytest.raises(ValueError):
            jains_index([-1, 2])

    def test_lexicographic_min(self):
        assert lexicographic_min([3, 1, 2]) == (1.0, 2.0, 3.0)

    def test_is_max_min_fair_after_convergence(self):
        ledger = PairCountLedger([0, 1, 2])
        ledger.add(0, 1, 9)
        ledger.add(1, 2, 9)
        balancer = MaxMinBalancer(ledger, rng=np.random.default_rng(0))
        assert not is_max_min_fair(balancer)
        balancer.balance_to_convergence()
        assert is_max_min_fair(balancer)

    def test_count_imbalance(self):
        ledger = PairCountLedger([0, 1, 2])
        assert count_imbalance(ledger) == 0.0
        ledger.add(0, 1, 5)
        ledger.add(1, 2, 2)
        assert count_imbalance(ledger) == 3.0

    def test_per_consumer_service_includes_zeros(self):
        service = per_consumer_service({(0, 1): 3}, [(0, 1), (2, 3)])
        assert service == {(0, 1): 3, (2, 3): 0}


class TestStarvation:
    def test_report_buckets_by_distance(self):
        topology = cycle_topology(10)
        near = ConsumptionRequest(0, (0, 1), issued_round=0, satisfied_round=1)
        far = ConsumptionRequest(1, (0, 5), issued_round=0, satisfied_round=10)
        result = make_result(swaps=0, requests=[near, far])
        report = starvation_report(topology, result)
        assert report.mean_wait_by_distance[1] == pytest.approx(1.0)
        assert report.mean_wait_by_distance[5] == pytest.approx(10.0)
        assert report.starvation_ratio == pytest.approx(10.0)
        assert report.distances() == [1, 5]
        assert report.unsatisfied_requests == 0

    def test_report_handles_missing_waits(self):
        topology = cycle_topology(10)
        request = ConsumptionRequest(0, (0, 5))
        result = make_result(swaps=0, requests=[request])
        report = starvation_report(topology, result)
        assert report.mean_wait_by_distance == {}
        assert math.isnan(report.starvation_ratio)


class TestReporting:
    def test_format_table_alignment_and_floats(self):
        table = format_table(("a", "b"), [("x", 1.23456), ("longer", 2)], title="T")
        lines = table.split("\n")
        assert lines[0] == "T"
        assert "1.235" in table
        assert "longer" in table

    def test_format_table_validates_rows(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [("only-one",)])
        with pytest.raises(ValueError):
            format_table((), [])

    def test_format_table_renders_bools(self):
        table = format_table(("ok",), [(True,), (False,)])
        assert "yes" in table and "no" in table

    def test_render_series_merges_x_values(self):
        text = render_series("D", {"cycle": {1: 2.0, 2: 3.0}, "grid": {2: 4.0}})
        assert "cycle" in text and "grid" in text
        assert "nan" in text  # grid has no D=1 point

    def test_render_series_requires_data(self):
        with pytest.raises(ValueError):
            render_series("D", {})
