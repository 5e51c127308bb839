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
"""

from repro.quantum.decoherence import (
    CutoffPolicy,
    DecoherenceModel,
    ExponentialDecoherence,
    NoDecoherence,
    survival_probability,
)
from repro.quantum.distillation import (
    DistillationProtocol,
    bbpssw_output_fidelity,
    bbpssw_success_probability,
    dejmps_round,
    distillation_overhead,
    expected_pairs_for_target,
    rounds_to_target_fidelity,
)
from repro.quantum.fidelity import (
    WERNER_MINIMUM_USEFUL_FIDELITY,
    WernerState,
    depolarize,
    swap_fidelity,
    teleportation_fidelity,
    werner_from_fidelity,
)
from repro.quantum.gates import CNOT, CZ, HADAMARD, IDENTITY, PAULI_X, PAULI_Y, PAULI_Z
from repro.quantum.qec import QECCode, apply_qec_thinning, surface_code_overhead
from repro.quantum.states import DensityMatrix, bell_state, fidelity as state_fidelity

__all__ = [
    "CNOT",
    "CZ",
    "CutoffPolicy",
    "DecoherenceModel",
    "DensityMatrix",
    "DistillationProtocol",
    "ExponentialDecoherence",
    "HADAMARD",
    "IDENTITY",
    "NoDecoherence",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "QECCode",
    "WERNER_MINIMUM_USEFUL_FIDELITY",
    "WernerState",
    "apply_qec_thinning",
    "bbpssw_output_fidelity",
    "bbpssw_success_probability",
    "bell_state",
    "dejmps_round",
    "depolarize",
    "distillation_overhead",
    "expected_pairs_for_target",
    "rounds_to_target_fidelity",
    "state_fidelity",
    "surface_code_overhead",
    "survival_probability",
    "swap_fidelity",
    "teleportation_fidelity",
    "werner_from_fidelity",
]
