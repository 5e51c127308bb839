"""Experiment E3: the Section 3 linear program.

The paper presents the LP as the analytic backbone (no figure is devoted to
it), so this experiment validates and exercises it end to end:

* solve every objective of Section 3.3 on the paper's topologies,
* verify the steady-state conditions of Section 3.1 hold for each solution,
* show the effect of the Section 3.2 extensions (distillation ``D``, loss
  ``L``, QEC ``R``) on the achievable uniform demand scaling ``alpha``.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.reporting import format_table
from repro.experiments.api import Experiment, ExperimentResult, ParamSpec, RowTable, columns_of
from repro.experiments.registry import register
from repro.core.lp import solver
from repro.core.lp.extensions import PairOverheads
from repro.core.lp.formulation import LinearProgram, PathObliviousFlowProgram
from repro.core.lp.objectives import Objective
from repro.core.lp.solver import InfeasibleProgramError, flow_solution
from repro.core.lp.steady_state import compute_rates, verify_steady_state
from repro.network.demand import select_consumer_pairs, uniform_demand
from repro.network.topologies import topology_from_name, validate_topology_sizes
from repro.obs.spans import emit, span
from repro.runtime.seeding import RandomStreams


@dataclass
class LPValidationRow:
    """One (topology, objective, overheads) LP solve."""

    topology: str
    n_nodes: int
    objective: str
    distillation: float
    loss: float
    qec_overhead: float
    objective_value: float
    alpha: Optional[float]
    total_swap_rate: float
    total_generation_rate: float
    total_consumption_rate: float
    steady_state_ok: bool
    feasible: bool = True


@dataclass
class LPValidationResult(ExperimentResult):
    """All LP solves performed by the experiment."""

    experiment = "lp"
    COLUMNS = columns_of(LPValidationRow)

    rows: List[LPValidationRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        # The structured records stay attribute-accessible (result.rows);
        # calling the table yields the uniform contract's flat tuples.
        self.rows = RowTable(self.rows)

    def series(self) -> Dict[str, Dict[float, float]]:
        """``topology -> {D -> alpha}`` for the proportional-scaling objective."""
        table: Dict[str, Dict[float, float]] = {}
        for row in self.rows:
            if row.objective == Objective.MAX_PROPORTIONAL_ALPHA.value and row.alpha is not None:
                table.setdefault(row.topology, {})[row.distillation] = row.alpha
        return table

    def format_report(self) -> str:
        headers = (
            "topology",
            "objective",
            "D",
            "L",
            "R",
            "optimum",
            "alpha",
            "swap rate",
            "gen rate",
            "cons rate",
            "steady",
            "feasible",
        )
        rows = [
            (
                row.topology,
                row.objective,
                row.distillation,
                row.loss,
                row.qec_overhead,
                row.objective_value,
                float("nan") if row.alpha is None else row.alpha,
                row.total_swap_rate,
                row.total_generation_rate,
                row.total_consumption_rate,
                row.steady_state_ok,
                row.feasible,
            )
            for row in self.rows
        ]
        return format_table(headers, rows, title="E3: path-oblivious LP (Section 3)")


def _solve(linear_program: LinearProgram) -> Optional[Tuple]:
    """Pool task: :func:`solve_linear_program`'s result, ``None`` if infeasible."""
    with span("lp.solve", variables=len(linear_program.objective)):
        try:
            # Looked up on the module, so a wrapper installed there (the
            # benchmark's solve timer) applies to in-process solves.
            return solver.solve_linear_program(linear_program)
        except InfeasibleProgramError:
            return None


def _build(program: PathObliviousFlowProgram, objective: Objective) -> LinearProgram:
    """``program.build(objective)``, recorded as an ``lp.build`` span with its counts."""
    start = time.perf_counter()
    linear_program = program.build(objective)
    # The counts exist only once the program does, hence emit, not a with block.
    emit(
        "lp.build",
        start,
        time.perf_counter() - start,
        variables=linear_program.n_variables,
        constraints=linear_program.n_constraints,
        nonzeros=linear_program.n_nonzeros,
    )
    return linear_program


def _program(unit: Dict) -> PathObliviousFlowProgram:
    overheads = PairOverheads.uniform(distillation=unit["distillation"], loss=unit["loss"])
    return PathObliviousFlowProgram(
        unit["topology"], unit["demand"], overheads=overheads, qec_overhead=unit["qec"]
    )


def _row(
    unit: Dict,
    program: PathObliviousFlowProgram,
    objective: Objective,
    linear_program: LinearProgram,
    solved: Optional[Tuple],
) -> LPValidationRow:
    """One objective's row: the solution named and steady-state-checked."""
    point = dict(
        topology=unit["topology_name"],
        n_nodes=unit["n_nodes"],
        objective=objective.value,
        distillation=unit["distillation"],
        loss=unit["loss"],
        qec_overhead=unit["qec"],
    )
    if solved is None:
        # The demanded consumption exceeds what generation can support
        # under these overheads -- exactly the regime the paper's
        # consumption-maximising objectives exist for.  Record the
        # infeasibility instead of failing.
        return LPValidationRow(
            **point,
            objective_value=float("nan"),
            alpha=None,
            total_swap_rate=float("nan"),
            total_generation_rate=float("nan"),
            total_consumption_rate=float("nan"),
            steady_state_ok=False,
            feasible=False,
        )
    solution = flow_solution(program, objective, linear_program, *solved)
    rates = compute_rates(
        program.topology.nodes,
        solution.generation_rates,
        solution.consumption_rates,
        solution.swap_rates,
        overheads=program.overheads,
    )
    verify_steady_state(rates)
    return LPValidationRow(
        **point,
        objective_value=solution.objective_value,
        alpha=solution.alpha,
        total_swap_rate=solution.total_swap_rate(),
        total_generation_rate=solution.total_generation_rate(),
        total_consumption_rate=solution.total_consumption_rate(),
        steady_state_ok=rates.is_consistent,
    )


@register
class LPValidationExperiment(Experiment):
    """The Section 3 LP as a registered experiment: programs built here,
    objective solves fanned out over the worker pool."""

    name = "lp"
    summary = "Validate the Section 3 LP: every objective, steady-state-checked, with D/L/R extensions."
    params = (
        ParamSpec("n_nodes", int, 25, "number of nodes |N|", flag="--nodes"),
        ParamSpec("topologies", tuple, ("cycle", "grid"), "topology families to solve on", cli=False),
        ParamSpec("demand_pairs", int, 10, "consumer pairs in the demand matrix", cli=False),
        ParamSpec("demand_rate", float, 0.2, "uniform per-pair demand rate", cli=False),
        ParamSpec("distillation_values", tuple, (1.0, 2.0), "distillation overheads D", cli=False),
        ParamSpec("loss_values", tuple, (1.0,), "loss factors L", cli=False),
        ParamSpec("qec_overheads", tuple, (1.0,), "QEC overheads R", cli=False),
        ParamSpec("objectives", tuple, tuple(Objective), "LP objectives to solve", cli=False),
        ParamSpec("seed", int, 3, "seed for topology/demand draws", cli=False),
    )

    parallel_execute = True

    def normalize(self, params):
        validate_topology_sizes(params["topologies"], (params["n_nodes"],))
        return params

    def build_grid(self, params) -> List[Dict]:
        """One unit per (topology, D, L, R) program.

        Topologies and consumer pairs are drawn here, in grid order, from
        one :class:`RandomStreams` shared across the grid (that draw order
        is part of the experiment's determinism contract).
        """
        points: List[Dict] = []
        streams = RandomStreams(params["seed"])
        for topology_name in params["topologies"]:
            topology = topology_from_name(
                topology_name, params["n_nodes"], rng=streams.get("topology")
            )
            pairs = select_consumer_pairs(topology, params["demand_pairs"], streams.get("consumers"))
            demand = uniform_demand(pairs, rate=params["demand_rate"])
            points.extend(
                dict(
                    topology_name=topology_name,
                    n_nodes=params["n_nodes"],
                    topology=topology,
                    demand=demand,
                    distillation=distillation,
                    loss=loss,
                    qec=qec,
                    objectives=params["objectives"],
                )
                for distillation in params["distillation_values"]
                for loss in params["loss_values"]
                for qec in params["qec_overheads"]
            )
        return points

    def execute(self, grid, runtime) -> List[List[LPValidationRow]]:
        """One outcome per program: its rows, one per objective.

        Every (program, objective) is built here; only the built arrays
        travel to the solves, one pool task each, and each solution is
        named and steady-state-checked here as it lands, in grid order.
        """
        # Imported here: repro.runtime imports the experiment configs, and
        # the pool module stays off the start-up path.
        from repro.runtime.pool import ordered_map

        units = []
        for unit in grid:
            program = _program(unit)
            built = [(objective, _build(program, objective)) for objective in unit["objectives"]]
            units.append((unit, program, built))
        arrays = [
            linear_program.without_names() for *_, built in units for _, linear_program in built
        ]
        outcomes: List[List[LPValidationRow]] = []
        with closing(ordered_map(_solve, arrays, runtime.workers)) as solved:
            for index, (unit, program, built) in enumerate(units):
                outcomes.append(
                    [
                        _row(unit, program, objective, linear_program, next(solved))
                        for objective, linear_program in built
                    ]
                )
                if runtime.on_result is not None:
                    runtime.on_result(index, outcomes[-1])
        return outcomes

    def reduce(self, outcomes: List[List[LPValidationRow]], params) -> LPValidationResult:
        return LPValidationResult(rows=[row for rows in outcomes for row in rows])
