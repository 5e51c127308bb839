"""Per-pair overheads: distillation, decoherence loss, and QEC (paper, §3.2).

The LP of Section 3.1 is extended in Section 3.2 with three knobs:

* ``D_{x,y}`` -- the expected number of distillations needed before the pair
  ``[x, y]`` reaches usable fidelity; it multiplies the *departure* rate.
* ``L_{x,y}`` -- the fraction of fully distilled pairs that survive
  decoherence long enough to be used; it multiplies the *arrival* rate.
* ``R`` -- the QEC overhead (physical qubits per logical qubit), applied by
  thinning every generation rate to ``g / R``.

:class:`PairOverheads` bundles the per-pair ``D`` and ``L`` maps with
uniform defaults; ``R`` is the LP's ``qec_overhead``.  Only the LP reads
``L`` and ``R``: a simulated trial pays ``D`` alone.  All three arrive as
numbers.  Deriving them from link fidelities and memory coherence
is the job of :mod:`repro.quantum`, which this layer never imports
(``examples/capacity_planning.py`` shows the bridge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable

from repro.network.topology import EdgeKey, edge_key

NodeId = Hashable


@dataclass
class PairOverheads:
    """Distillation and loss overheads for every node pair.

    Attributes
    ----------
    default_distillation:
        The uniform ``D`` used for pairs without an explicit entry (the
        paper's experiments use a single uniform ``D``).
    default_loss:
        The uniform survival factor ``L`` in ``(0, 1]`` used for pairs
        without an explicit entry (1.0 = no decoherence loss, the paper's
        base assumption).
    distillation, loss:
        Optional per-pair overrides keyed by canonical edge key.
    """

    default_distillation: float = 1.0
    default_loss: float = 1.0
    distillation: Dict[EdgeKey, float] = field(default_factory=dict)
    loss: Dict[EdgeKey, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._validate_distillation(self.default_distillation)
        self._validate_loss(self.default_loss)
        for value in self.distillation.values():
            self._validate_distillation(value)
        for value in self.loss.values():
            self._validate_loss(value)

    @staticmethod
    def _validate_distillation(value: float) -> None:
        if value < 1.0:
            raise ValueError(f"distillation overhead D must be >= 1, got {value}")

    @staticmethod
    def _validate_loss(value: float) -> None:
        if not 0.0 < value <= 1.0:
            raise ValueError(f"loss factor L must be in (0, 1], got {value}")

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def distillation_for(self, node_a: NodeId, node_b: NodeId) -> float:
        """The overhead ``D_{x,y}`` for the pair ``{node_a, node_b}``."""
        return self.distillation.get(edge_key(node_a, node_b), self.default_distillation)

    def loss_for(self, node_a: NodeId, node_b: NodeId) -> float:
        """The survival factor ``L_{x,y}`` for the pair ``{node_a, node_b}``."""
        return self.loss.get(edge_key(node_a, node_b), self.default_loss)

    def set_distillation(self, node_a: NodeId, node_b: NodeId, value: float) -> None:
        self._validate_distillation(value)
        self.distillation[edge_key(node_a, node_b)] = float(value)

    def set_loss(self, node_a: NodeId, node_b: NodeId, value: float) -> None:
        self._validate_loss(value)
        self.loss[edge_key(node_a, node_b)] = float(value)

    @classmethod
    def uniform(cls, distillation: float = 1.0, loss: float = 1.0) -> "PairOverheads":
        """Uniform overheads (the paper's experimental setting)."""
        return cls(default_distillation=distillation, default_loss=loss)
