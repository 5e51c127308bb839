"""Balancing engines by name.

Both engines are the same dense :class:`~repro.core.maxmin.balancer.MaxMinBalancer`.
``"incremental"`` turns on its skip mode: a node whose last turn found no
preferable swap is not re-evaluated until a ledger mutation touches its row
or the pairs among its donors.  The swap sequence, the ledger and every
random draw are identical between the two; only the number of evaluated
turns differs, which pays off in the long convergence tails of large
topologies (see the ``scaling`` experiment).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.ledger import PairCountLedger

#: The balancing engines the experiment layer can request by name.
BALANCER_ENGINES: Tuple[str, ...] = ("naive", "incremental")


class IncrementalMaxMinBalancer(MaxMinBalancer):
    """:class:`MaxMinBalancer` with the skip mode on."""

    def __init__(self, ledger: PairCountLedger, *args, **kwargs):
        kwargs.setdefault("skip_idle", True)
        super().__init__(ledger, *args, **kwargs)


def make_balancer(engine: str, ledger: PairCountLedger, **kwargs) -> MaxMinBalancer:
    """Build the balancing engine named ``engine`` over ``ledger``.

    ``"naive"`` evaluates every node's turn; ``"incremental"`` skips idle
    nodes.  Both accept the same keyword arguments and execute the same
    swaps.
    """
    if engine == "naive":
        return MaxMinBalancer(ledger, **kwargs)
    if engine == "incremental":
        return IncrementalMaxMinBalancer(ledger, **kwargs)
    raise ValueError(f"unknown balancer engine {engine!r}; choose from {BALANCER_ENGINES}")
