"""Bell-pair generation processes.

The paper abstracts generation as an average rate ``g(x, y)`` per edge.  The
protocols' round loop needs a concrete per-round realisation of that rate;
three are provided:

* :class:`DeterministicGeneration` -- exactly ``g`` pairs per edge per round
  (fractional rates accumulate), matching the paper's ``g = 1`` setting.
* :class:`BernoulliGeneration` -- each edge flips a coin with success
  probability ``min(g, 1)`` per round.
* :class:`PoissonGeneration` -- the number of new pairs per round is
  Poisson-distributed with mean ``g``.

Per round, every process draws an ``int64`` array of new pairs aligned with
the live topology's generation edges (a severed edge stops at once); the
protocols land it in the ledger with one scatter-add.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.network.topology import EdgeKey, Topology

#: One round's draw: the generation edges and the new pairs on each.
Draw = Tuple[Tuple[EdgeKey, ...], np.ndarray]


class GenerationProcess(abc.ABC):
    """Turns per-edge average rates into per-round integer pair counts."""

    def __init__(self, topology: Topology):
        self.topology = topology

    @abc.abstractmethod
    def draw(self, round_index: int, rng: np.random.Generator) -> Draw:
        """This round's new elementary pairs: the generation edges and an aligned count array."""

    def expected_rate(self, edge: EdgeKey) -> float:
        """The average rate ``g`` realised for ``edge`` (for sanity checks)."""
        return self.topology.generation_rate(*edge)


class DeterministicGeneration(GenerationProcess):
    """Deterministic generation: edge with rate ``g`` yields ``g`` pairs per round.

    Non-integer rates are handled by error accumulation (an edge with
    ``g = 0.5`` produces one pair every other round), so the long-run rate is
    exact for any positive ``g``.  An edge keeps its accumulator while it is
    severed.
    """

    def __init__(self, topology: Topology):
        super().__init__(topology)
        self._accumulators: Dict[EdgeKey, float] = {edge: 0.0 for edge in topology.edges()}
        # The accumulators of the current edges, as an array aligned with them.
        self._accumulated_edges: Tuple[EdgeKey, ...] = ()
        self._accumulated = np.zeros(0)

    def draw(self, round_index: int, rng: np.random.Generator) -> Draw:
        edges, rates = self.topology.generation_edges()
        if edges is not self._accumulated_edges:
            # The edge set changed: park the old remainders, line up the new.
            self._accumulators.update(zip(self._accumulated_edges, self._accumulated.tolist()))
            self._accumulated_edges = edges
            self._accumulated = np.array(
                [self._accumulators.get(edge, 0.0) for edge in edges], dtype=float
            )
        accumulated = self._accumulated + np.array(rates)
        counts = accumulated.astype(np.int64)
        self._accumulated = accumulated - counts
        return edges, counts


class BernoulliGeneration(GenerationProcess):
    """Each edge independently produces one pair with probability ``min(g, 1)`` per round."""

    def draw(self, round_index: int, rng: np.random.Generator) -> Draw:
        edges, rates = self.topology.generation_edges()
        # One uniform per edge, in edge order: the stream a per-edge loop draws.
        return edges, (rng.random(len(edges)) < np.minimum(rates, 1.0)).astype(np.int64)


class PoissonGeneration(GenerationProcess):
    """Each edge produces ``Poisson(g)`` pairs per round."""

    def draw(self, round_index: int, rng: np.random.Generator) -> Draw:
        edges, rates = self.topology.generation_edges()
        # One variate per edge, in edge order: the stream a per-edge loop draws.
        return edges, rng.poisson(rates).astype(np.int64)


def make_generation_process(
    name: str, topology: Topology, overrides: Optional[Mapping[str, object]] = None
) -> GenerationProcess:
    """Build a generation process by name (``"deterministic"``, ``"bernoulli"``, ``"poisson"``)."""
    key = name.lower().strip()
    if key == "deterministic":
        return DeterministicGeneration(topology)
    if key == "bernoulli":
        return BernoulliGeneration(topology)
    if key == "poisson":
        return PoissonGeneration(topology)
    raise KeyError(f"unknown generation process {name!r}; choose deterministic, bernoulli or poisson")
