"""Quantum substrate.

The paper treats Bell pairs as interchangeable, countable resources with two
quality parameters: a distillation overhead ``D`` and a loss/decoherence
factor ``L``.  This package provides the physical models behind them:

* :mod:`repro.quantum.states` and :mod:`repro.quantum.gates` -- a small
  density-matrix simulator used to *validate* the analytic formulas
  (teleportation, swapping and purification circuits are executed on real
  density matrices in the test suite).
* :mod:`repro.quantum.fidelity` -- Werner-state fidelity algebra: swap
  composition, depolarising decay, teleportation fidelity.
* :mod:`repro.quantum.distillation` -- BBPSSW and DEJMPS purification, plus
  the expected-cost model that produces the paper's ``D`` parameter.
* :mod:`repro.quantum.qec` -- the quantum-error-correction overhead model
  (rate ``R`` thinning of generation) of Section 3.2.
* :mod:`repro.quantum.decoherence` -- memory decoherence models producing
  the loss factor ``L`` of Section 3.2.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.quantum.decoherence": (
            "DecoherenceModel",
            "ExponentialDecoherence",
            "NoDecoherence",
        ),
        "repro.quantum.distillation": (
            "DistillationProtocol",
            "bbpssw_output_fidelity",
            "bbpssw_success_probability",
            "dejmps_round",
            "distillation_overhead",
            "expected_pairs_for_target",
            "rounds_to_target_fidelity",
        ),
        "repro.quantum.fidelity": (
            "WERNER_MINIMUM_USEFUL_FIDELITY",
            "WernerState",
            "depolarize",
            "swap_fidelity",
            "teleportation_fidelity",
            "werner_from_fidelity",
        ),
        "repro.quantum.gates": (
            "CNOT",
            "CZ",
            "HADAMARD",
            "IDENTITY",
            "PAULI_X",
            "PAULI_Y",
            "PAULI_Z",
        ),
        "repro.quantum.qec": ("QECCode", "apply_qec_thinning", "surface_code_overhead"),
        "repro.quantum.states": ("DensityMatrix", "bell_state", "fidelity"),
    },
)
