"""Path-oblivious linear-program formulation (paper, Section 3).

Every public name below is a lazy export (:mod:`repro.lazy`): the trial
path reads ``PairOverheads`` without the formulation and solver.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.lp.extensions": ("PairOverheads",),
        "repro.core.lp.formulation": (
            "LinearProgram",
            "PathObliviousFlowProgram",
            "VariableIndex",
        ),
        "repro.core.lp.objectives": ("Objective",),
        "repro.core.lp.solver": ("LPSolution", "solve_flow_program", "solve_linear_program"),
        "repro.core.lp.steady_state": ("SteadyStateRates", "compute_rates", "verify_steady_state"),
    },
)
