"""Tests for the path-oblivious LP: formulation, objectives, solver, extensions."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from repro.core.lp.extensions import PairOverheads
from repro.core.lp.formulation import PathObliviousFlowProgram, VariableIndex
from repro.core.lp.objectives import Objective
from repro.core.lp.solver import InfeasibleProgramError, solve_flow_program, solve_linear_program
from repro.core.lp.steady_state import (
    compute_rates,
    verify_steady_state,
)
from repro.network.demand import uniform_demand
from repro.network.topologies import cycle_topology, grid_topology, line_topology
from repro.network.topology import Topology, edge_key


class TestPairOverheads:
    def test_defaults(self):
        overheads = PairOverheads()
        assert overheads.distillation_for(0, 1) == 1.0
        assert overheads.loss_for(0, 1) == 1.0

    def test_per_pair_overrides(self):
        overheads = PairOverheads.uniform(distillation=2.0, loss=0.9)
        overheads.set_distillation(0, 1, 3.0)
        overheads.set_loss(1, 0, 0.5)
        assert overheads.distillation_for(1, 0) == 3.0
        assert overheads.loss_for(0, 1) == 0.5
        assert overheads.distillation_for(4, 5) == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PairOverheads(default_distillation=0.5)
        with pytest.raises(ValueError):
            PairOverheads(default_loss=0.0)
        with pytest.raises(ValueError):
            PairOverheads.uniform(distillation=2.0).set_loss(0, 1, 1.5)


class TestVariableIndex:
    def test_add_and_lookup(self):
        index = VariableIndex()
        first = index.add(("sigma", 1, (0, 2)))
        again = index.add(("sigma", 1, (0, 2)))
        assert first == again == 0
        assert ("sigma", 1, (0, 2)) in index
        assert len(index) == 1


class TestFormulation:
    def test_variable_count(self):
        topology = cycle_topology(5)
        program = PathObliviousFlowProgram(topology, uniform_demand([(0, 2)], 0.1))
        lp = program.build(Objective.MIN_TOTAL_SWAPS)
        # sigma variables: every (repeater, pair) with repeater outside the pair.
        expected_sigma = 5 * (4 * 3 // 2)
        assert lp.n_variables == expected_sigma
        assert lp.n_constraints == 10  # one balance row per unordered pair

    def test_generation_variables_only_on_edges(self):
        topology = cycle_topology(5)
        program = PathObliviousFlowProgram(topology, uniform_demand([(0, 2)], 0.1))
        lp = program.build(Objective.MIN_TOTAL_GENERATION)
        generation_vars = [name for name in lp.variables.names() if name[0] == "g"]
        assert len(generation_vars) == topology.n_edges

    @pytest.mark.parametrize("objective", list(Objective))
    def test_constraint_matrix_matches_the_lil_builder(self, objective):
        """The direct CSR assembly hands HiGHS the arrays the original
        per-entry lil_matrix builder produced: same data, indices, indptr."""
        topology = grid_topology(9)
        overheads = PairOverheads(default_distillation=2.0, default_loss=0.9)
        overheads.set_distillation(0, 1, 3.5)
        overheads.set_loss(2, 5, 0.75)
        program = PathObliviousFlowProgram(
            topology, uniform_demand([(0, 4), (2, 6), (1, 8)], 0.05), overheads=overheads
        )
        lp = program.build(objective)
        reference = _lil_constraint_matrix(program, lp, objective)
        assert lp.a_ub.shape == reference.shape
        for attribute in ("data", "indices", "indptr"):
            expected = getattr(reference, attribute)
            actual = getattr(lp.a_ub, attribute)
            assert actual.dtype == expected.dtype
            assert np.array_equal(actual, expected)

    def test_rejects_disconnected_topology(self):
        topology = Topology("d", nodes=[0, 1, 2, 3])
        topology.add_edge(0, 1)
        topology.add_edge(2, 3)
        with pytest.raises(ValueError):
            PathObliviousFlowProgram(topology, uniform_demand([(0, 1)], 0.1))

    def test_rejects_demand_outside_topology(self):
        topology = cycle_topology(5)
        with pytest.raises(ValueError):
            PathObliviousFlowProgram(topology, uniform_demand([(0, 77)], 0.1))

    def test_rejects_bad_qec(self):
        with pytest.raises(ValueError):
            PathObliviousFlowProgram(cycle_topology(5), uniform_demand([(0, 2)], 0.1), qec_overhead=0.5)


class TestSolverOnKnownCases:
    def test_line_min_generation_matches_hop_count(self):
        # Serving rate c end-to-end over a 4-hop line needs c pairs per link.
        topology = line_topology(5)
        program = PathObliviousFlowProgram(topology, uniform_demand([(0, 4)], 0.5))
        solution = solve_flow_program(program, Objective.MIN_TOTAL_GENERATION)
        assert solution.objective_value == pytest.approx(4 * 0.5, abs=1e-6)
        assert solution.total_swap_rate() == pytest.approx(3 * 0.5, abs=1e-6)

    def test_line_alpha_equals_capacity_ratio(self):
        topology = line_topology(5)
        program = PathObliviousFlowProgram(topology, uniform_demand([(0, 4)], 0.5))
        solution = solve_flow_program(program, Objective.MAX_PROPORTIONAL_ALPHA)
        assert solution.alpha == pytest.approx(2.0, abs=1e-6)

    def test_adjacent_demand_needs_no_swaps(self):
        topology = cycle_topology(6)
        program = PathObliviousFlowProgram(topology, uniform_demand([(0, 1)], 0.5))
        solution = solve_flow_program(program, Objective.MIN_TOTAL_SWAPS)
        assert solution.total_swap_rate() == pytest.approx(0.0, abs=1e-9)

    def test_min_swaps_matches_shortest_path_on_cycle(self):
        topology = cycle_topology(8)
        program = PathObliviousFlowProgram(topology, uniform_demand([(0, 3)], 0.2))
        solution = solve_flow_program(program, Objective.MIN_TOTAL_SWAPS)
        # 3 hops need 2 swaps per delivered pair.
        assert solution.total_swap_rate() == pytest.approx(0.4, abs=1e-6)

    def test_distillation_reduces_alpha(self):
        topology = line_topology(4)
        demand = uniform_demand([(0, 3)], 0.5)
        plain = solve_flow_program(
            PathObliviousFlowProgram(topology, demand), Objective.MAX_PROPORTIONAL_ALPHA
        )
        costly = solve_flow_program(
            PathObliviousFlowProgram(topology, demand, overheads=PairOverheads.uniform(distillation=2.0)),
            Objective.MAX_PROPORTIONAL_ALPHA,
        )
        assert costly.alpha < plain.alpha

    def test_loss_reduces_alpha(self):
        topology = line_topology(4)
        demand = uniform_demand([(0, 3)], 0.5)
        plain = solve_flow_program(
            PathObliviousFlowProgram(topology, demand), Objective.MAX_PROPORTIONAL_ALPHA
        )
        lossy = solve_flow_program(
            PathObliviousFlowProgram(topology, demand, overheads=PairOverheads.uniform(loss=0.5)),
            Objective.MAX_PROPORTIONAL_ALPHA,
        )
        assert lossy.alpha < plain.alpha

    def test_qec_thinning_reduces_alpha(self):
        topology = line_topology(4)
        demand = uniform_demand([(0, 3)], 0.5)
        plain = solve_flow_program(
            PathObliviousFlowProgram(topology, demand), Objective.MAX_PROPORTIONAL_ALPHA
        )
        thinned = solve_flow_program(
            PathObliviousFlowProgram(topology, demand, qec_overhead=4.0),
            Objective.MAX_PROPORTIONAL_ALPHA,
        )
        assert thinned.alpha == pytest.approx(plain.alpha / 4.0, rel=1e-4)

    def test_infeasible_demand_raises(self):
        topology = line_topology(3)
        demand = uniform_demand([(0, 2)], 10.0)  # far beyond capacity
        program = PathObliviousFlowProgram(topology, demand)
        with pytest.raises(InfeasibleProgramError):
            solve_flow_program(program, Objective.MIN_TOTAL_GENERATION)

    def test_max_consumption_bounded_by_demand(self):
        topology = cycle_topology(6)
        demand = uniform_demand([(0, 3), (1, 4)], 0.1)
        solution = solve_flow_program(
            PathObliviousFlowProgram(topology, demand), Objective.MAX_TOTAL_CONSUMPTION
        )
        assert solution.total_consumption_rate() == pytest.approx(0.2, abs=1e-6)

    def test_max_min_consumption_fairness(self):
        # One short pair and one long pair competing: max-min should not starve the long one.
        topology = line_topology(5)
        demand = uniform_demand([(0, 1), (0, 4)], 1.0)
        solution = solve_flow_program(
            PathObliviousFlowProgram(topology, demand), Objective.MAX_MIN_CONSUMPTION
        )
        rates = [solution.consumption_rates.get(pair, 0.0) for pair in demand.pairs()]
        assert min(rates) == pytest.approx(solution.objective_value, abs=1e-6)
        assert solution.objective_value > 0.2

    def test_min_max_generation_balances_edges(self):
        topology = cycle_topology(6)
        demand = uniform_demand([(0, 3)], 0.2)
        solution = solve_flow_program(
            PathObliviousFlowProgram(topology, demand), Objective.MIN_MAX_GENERATION
        )
        assert solution.objective_value <= 0.2 + 1e-6  # both directions around the cycle share load


class TestSolverRetry:
    """The status-4 path of :func:`solve_linear_program`, with ``linprog`` stubbed."""

    @staticmethod
    def _stub_linprog(monkeypatch, *statuses):
        """Answer the first calls with ``statuses``, later ones with the real solver."""
        real = scipy.optimize.linprog
        calls = []

        def linprog(**kwargs):
            calls.append(kwargs)
            if len(calls) <= len(statuses):
                status = statuses[len(calls) - 1]
                message = "The problem is infeasible." if status == 2 else "Numerical difficulties."
                return SimpleNamespace(status=status, message=message, x=None, fun=None)
            return real(**kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)
        return calls

    @staticmethod
    def _program():
        program = PathObliviousFlowProgram(cycle_topology(6), uniform_demand([(0, 3)], 0.2))
        return program.build(Objective.MIN_MAX_GENERATION)

    def test_status_4_retries_dual_simplex_without_presolve_on_the_same_matrix(self, monkeypatch):
        lp = self._program()
        expected = solve_linear_program(lp)
        calls = self._stub_linprog(monkeypatch, 4)
        solution, optimum, status, _ = solve_linear_program(lp)
        first, retry = calls
        assert first["method"] == "highs" and "options" not in first
        assert retry["method"] == "highs-ds" and retry["options"] == {"presolve": False}
        for attribute in ("data", "indices", "indptr"):
            built = getattr(lp.a_ub, attribute)
            assert np.array_equal(getattr(first["A_ub"], attribute), built)
            assert np.array_equal(getattr(retry["A_ub"], attribute), built)
        assert retry["A_ub"].shape == first["A_ub"].shape == lp.a_ub.shape
        assert status == 0 and optimum == pytest.approx(expected[1], abs=1e-9)
        assert solution.shape == expected[0].shape

    def test_status_2_raises_infeasible(self, monkeypatch):
        calls = self._stub_linprog(monkeypatch, 2)
        with pytest.raises(InfeasibleProgramError):
            solve_linear_program(self._program())
        assert len(calls) == 1

    def test_a_retry_that_reports_infeasibility_raises_infeasible(self, monkeypatch):
        def linprog(**kwargs):
            return SimpleNamespace(status=4, message="Model status: Infeasible", x=None, fun=None)

        monkeypatch.setattr(scipy.optimize, "linprog", linprog)
        with pytest.raises(InfeasibleProgramError):
            solve_linear_program(self._program())

    def test_a_failed_retry_raises(self, monkeypatch):
        calls = self._stub_linprog(monkeypatch, 4, 4)
        with pytest.raises(RuntimeError, match="status 4"):
            solve_linear_program(self._program())
        assert [call["method"] for call in calls] == ["highs", "highs-ds"]


class TestSteadyState:
    def test_lp_solutions_satisfy_balance(self):
        topology = grid_topology(9)
        demand = uniform_demand([(0, 4), (2, 6)], 0.2)
        overheads = PairOverheads.uniform(distillation=2.0)
        program = PathObliviousFlowProgram(topology, demand, overheads=overheads)
        for objective in (Objective.MAX_PROPORTIONAL_ALPHA, Objective.MAX_TOTAL_CONSUMPTION):
            solution = solve_flow_program(program, objective)
            rates = compute_rates(
                topology.nodes,
                solution.generation_rates,
                solution.consumption_rates,
                solution.swap_rates,
                overheads=overheads,
            )
            assert verify_steady_state(rates).is_consistent

    def test_violation_detected(self):
        rates = compute_rates(
            nodes=[0, 1],
            generation={(0, 1): 0.1},
            consumption={(0, 1): 1.0},
            swap_rates={},
        )
        verify_steady_state(rates)
        assert not rates.is_consistent
        assert rates.slack((0, 1)) < 0

    def test_swap_rates_counted_on_both_sides(self):
        rates = compute_rates(
            nodes=[0, 1, 2],
            generation={(0, 1): 1.0, (1, 2): 1.0},
            consumption={},
            swap_rates={(1, (0, 2)): 0.5},
        )
        assert rates.arrivals[(0, 2)] == pytest.approx(0.5)
        assert rates.departures[(0, 1)] == pytest.approx(0.5)
        assert rates.departures[(1, 2)] == pytest.approx(0.5)

    def test_degenerate_swap_rejected(self):
        with pytest.raises(ValueError):
            compute_rates([0, 1], {}, {}, {(0, (0, 1)): 0.5})


def _lil_constraint_matrix(program, lp, objective):
    """``A_ub`` as the original builder assembled it, entry by entry."""
    index_of = lp.variables.index_of
    rows = []
    for pair in program.pairs:
        x, y = pair
        distillation = program.overheads.distillation_for(x, y)
        loss = program.overheads.loss_for(x, y)
        row = {}
        kappa = program.demand_rate(pair)
        if objective is Objective.MAX_PROPORTIONAL_ALPHA and kappa > 0:
            row[index_of(("alpha",))] = distillation * kappa
        elif objective.consumption_is_variable() and kappa > 0:
            row[index_of(("c", pair))] = distillation
        for node in program.nodes:
            if node in pair:
                continue
            for name in (("sigma", x, edge_key(node, y)), ("sigma", y, edge_key(node, x))):
                row[index_of(name)] = row.get(index_of(name), 0.0) + distillation
        if objective.generation_is_variable() and program.generation_capability(pair) > 0:
            row[index_of(("g", pair))] = row.get(index_of(("g", pair)), 0.0) - loss
        for node in program.nodes:
            if node not in pair:
                index = index_of(("sigma", node, pair))
                row[index] = row.get(index, 0.0) - loss
        rows.append(row)
    if objective is Objective.MIN_MAX_GENERATION:
        for pair in program.pairs:
            if ("g", pair) in lp.variables:
                rows.append({index_of(("g", pair)): 1.0, index_of(("max_generation",)): -1.0})
    if objective is Objective.MAX_MIN_CONSUMPTION:
        for pair in program.pairs:
            if ("c", pair) in lp.variables:
                rows.append({index_of(("min_consumption",)): 1.0, index_of(("c", pair)): -1.0})
    matrix = sparse.lil_matrix((len(rows), len(lp.variables)))
    for row_index, row in enumerate(rows):
        for column, value in row.items():
            matrix[row_index, column] = value
    return matrix.tocsr()
