"""Solving the path-oblivious flow program.

A thin wrapper around :func:`scipy.optimize.linprog` (HiGHS) that converts
the structured :class:`~repro.core.lp.formulation.LinearProgram` into the
solver's dense/sparse form and converts the raw solution vector back into
named swap/generation/consumption rates (:class:`LPSolution`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.core.lp.formulation import CSRArrays, LinearProgram, PathObliviousFlowProgram
from repro.core.lp.objectives import Objective
from repro.network.topology import EdgeKey

NodeId = Hashable

#: Rates below this magnitude are treated as numerical zeros when reporting.
RATE_EPSILON = 1e-9


class InfeasibleProgramError(RuntimeError):
    """Raised when the LP has no feasible solution (demand cannot be met at all)."""


@dataclass
class LPSolution:
    """A solved path-oblivious flow program.

    Attributes
    ----------
    objective:
        Which objective was optimised.
    objective_value:
        The optimum in the objective's *natural* sense (already un-negated
        for maximisation objectives).
    swap_rates:
        ``sigma_i(x, y)`` keyed by ``(repeater, pair)``, zeros omitted.
    generation_rates / consumption_rates:
        The chosen ``g`` / ``c`` rates (for objectives where they are fixed,
        the fixed values are echoed here so downstream code never cares).
    alpha:
        The uniform demand scaling (only for
        :data:`Objective.MAX_PROPORTIONAL_ALPHA`).
    status / message:
        Raw solver status (0 = optimal) and message.
    """

    objective: Objective
    objective_value: float
    swap_rates: Dict[Tuple[NodeId, EdgeKey], float] = field(default_factory=dict)
    generation_rates: Dict[EdgeKey, float] = field(default_factory=dict)
    consumption_rates: Dict[EdgeKey, float] = field(default_factory=dict)
    alpha: Optional[float] = None
    status: int = 0
    message: str = ""

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_swap_rate(self) -> float:
        """Total swap rate across all repeaters and pairs."""
        return sum(self.swap_rates.values())

    def total_generation_rate(self) -> float:
        return sum(self.generation_rates.values())

    def total_consumption_rate(self) -> float:
        return sum(self.consumption_rates.values())


def solve_linear_program(program: LinearProgram) -> Tuple[np.ndarray, float, int, str]:
    """Solve a generic :class:`LinearProgram`; return ``(x, optimum, status, message)``.

    The optimum is reported in the program's natural sense.  The
    constraint arrays become ``scipy.sparse.csr_matrix`` here, once, and
    both the ``highs`` solve and its ``highs-ds`` retry take the same ones.
    """
    # scipy is imported on use, off the start-up path (tests/test_startup.py).
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    def matrix(arrays: Optional[CSRArrays]):
        if arrays is None:
            return None
        return csr_matrix((arrays.data, arrays.indices, arrays.indptr), shape=arrays.shape)

    problem = dict(
        c=program.objective,
        A_ub=matrix(program.a_ub),
        b_ub=program.b_ub,
        A_eq=matrix(program.a_eq),
        b_eq=program.b_eq,
        bounds=program.bounds,
    )
    result = linprog(**problem, method="highs")
    if result.status == 4:
        # Numerical difficulties (typically extreme overhead scaling).  Retry
        # with the dual-simplex backend before concluding anything.
        result = linprog(**problem, method="highs-ds", options={"presolve": False})
    if result.status == 2 or (result.status == 4 and "nfeasible" in str(result.message)):
        raise InfeasibleProgramError(f"linear program is infeasible: {result.message}")
    if result.status != 0:
        raise RuntimeError(f"LP solver failed with status {result.status}: {result.message}")
    optimum = float(result.fun)
    if program.sense == "max":
        optimum = -optimum
    return np.asarray(result.x), optimum, int(result.status), str(result.message)


def solve_flow_program(
    program: PathObliviousFlowProgram, objective: Objective
) -> LPSolution:
    """Build and solve the flow program for ``objective``; return named rates."""
    linear_program = program.build(objective)
    return flow_solution(
        program, objective, linear_program, *solve_linear_program(linear_program)
    )


def flow_solution(
    program: PathObliviousFlowProgram,
    objective: Objective,
    linear_program: LinearProgram,
    solution_vector: np.ndarray,
    optimum: float,
    status: int,
    message: str,
) -> LPSolution:
    """Name the raw solution of ``linear_program = program.build(objective)``.

    The last four arguments are what :func:`solve_linear_program` returns,
    so a solve can run elsewhere (a pool worker) and be named here.
    """
    swap_rates: Dict[Tuple[NodeId, EdgeKey], float] = {}
    generation_rates: Dict[EdgeKey, float] = {}
    consumption_rates: Dict[EdgeKey, float] = {}
    alpha: Optional[float] = None

    for name, value in zip(linear_program.variables.names(), solution_vector.tolist()):
        if name[0] == "sigma":
            if value > RATE_EPSILON:
                swap_rates[(name[1], name[2])] = value
        elif name[0] == "g":
            if value > RATE_EPSILON:
                generation_rates[name[1]] = value
        elif name[0] == "c":
            if value > RATE_EPSILON:
                consumption_rates[name[1]] = value
        elif name[0] == "alpha":
            alpha = value

    # For objectives where generation/consumption are fixed inputs, echo them.
    if not objective.generation_is_variable():
        for pair in program.pairs:
            capability = program.generation_capability(pair)
            if capability > RATE_EPSILON:
                generation_rates[pair] = capability
    if not objective.consumption_is_variable():
        scaling = alpha if objective is Objective.MAX_PROPORTIONAL_ALPHA and alpha is not None else 1.0
        for pair in program.pairs:
            kappa = program.demand_rate(pair)
            if kappa > RATE_EPSILON:
                consumption_rates[pair] = kappa * scaling

    return LPSolution(
        objective=objective,
        objective_value=optimum,
        swap_rates=swap_rates,
        generation_rates=generation_rates,
        consumption_rates=consumption_rates,
        alpha=alpha,
        status=status,
        message=message,
    )
