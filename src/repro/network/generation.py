"""Bell-pair generation: the paper's deterministic per-round realisation.

The paper abstracts generation as an average rate ``g(x, y)`` per edge.  The
protocols' round loop needs a concrete per-round realisation of that rate:
:class:`DeterministicGeneration` yields exactly ``g`` pairs per edge per
round (fractional rates accumulate), matching the paper's ``g = 1`` setting.

Per round, it returns an ``int64`` array of new pairs aligned with the live
topology's generation edges (a severed edge stops at once); the protocols
land it in the ledger with one scatter-add.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.network.topology import EdgeKey, Topology

#: One round's draw: the generation edges and the new pairs on each.
Draw = Tuple[Tuple[EdgeKey, ...], np.ndarray]


class DeterministicGeneration:
    """Deterministic generation: edge with rate ``g`` yields ``g`` pairs per round.

    Non-integer rates are handled by error accumulation (an edge with
    ``g = 0.5`` produces one pair every other round), so the long-run rate is
    exact for any positive ``g``.  An edge keeps its accumulator while it is
    severed.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self._accumulators: Dict[EdgeKey, float] = {edge: 0.0 for edge in topology.edges()}
        # The accumulators of the current edges, as an array aligned with them.
        self._accumulated_edges: Tuple[EdgeKey, ...] = ()
        self._accumulated = np.zeros(0)

    def draw(self) -> Draw:
        """This round's new elementary pairs: the generation edges and an aligned count array."""
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
