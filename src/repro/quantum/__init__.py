"""Quantum substrate: the physics behind the paper's two overheads.

The paper treats Bell pairs as interchangeable, countable resources with two
quality parameters: a distillation overhead ``D`` and a loss/decoherence
factor ``L``.  This package derives them in closed form, on Werner states
(one fidelity ``F`` per pair, Werner parameter ``w = (4F - 1)/3``), in pure
Python with no numpy:

* :mod:`repro.quantum.fidelity` -- Werner-state fidelity algebra: swap
  composition (a swap multiplies ``w``), depolarising decay, teleportation
  fidelity.
* :mod:`repro.quantum.distillation` -- BBPSSW and DEJMPS purification, plus
  the expected-cost model that produces the paper's ``D`` parameter.
* :mod:`repro.quantum.qec` -- the quantum-error-correction overhead model
  (the rate ``R`` that thins generation) of Section 3.2.
* :mod:`repro.quantum.decoherence` -- memory decoherence models producing
  the loss factor ``L`` of Section 3.2.

The count-level layers (``repro.core``, the protocols, the experiments)
never import this package; they take ``D``, ``L`` and ``R`` as numbers.

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
        ),
        "repro.quantum.qec": ("QECCode", "surface_code_overhead"),
    },
)
