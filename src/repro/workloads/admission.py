"""Per-node admission control for timed workloads.

Each node runs a token bucket: ``rate`` tokens accrue per simulated round up
to a ``burst`` ceiling, and admitting a request costs one token at *each*
endpoint (a consumption binds resources at both ends of the pair).  A
request is rejected -- never queued -- when either endpoint's bucket is
empty, which is the classic admission-control contract: shed load at the
edge instead of letting queues grow without bound.

Decisions are evaluated in arrival order at each request's own arrival
round, so the admit/reject outcome is a pure function of the workload trace
and the bucket parameters -- *independent of the serving engine*, so every
protocol sees the same per-class admission counts under the same seed and
workload spec.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

NodeId = Hashable


class AdmissionController:
    """Per-node token buckets shared by every request of one trial.

    Parameters
    ----------
    rate:
        Tokens accrued per node per round.
    burst:
        Bucket capacity (also the initial fill), i.e. the largest arrival
        burst one node absorbs instantaneously.
    """

    def __init__(self, rate: float, burst: float):
        if rate <= 0:
            raise ValueError(f"admission rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"admission burst must be at least 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        # node -> (tokens, last refill time); buckets materialise lazily so
        # the controller needs no topology up front.
        self._buckets: Dict[NodeId, Tuple[float, float]] = {}
        self.admitted_count = 0
        self.rejected_count = 0

    def _tokens_at(self, node: NodeId, now: float) -> float:
        tokens, last = self._buckets.get(node, (self.burst, 0.0))
        return min(self.burst, tokens + self.rate * max(now - last, 0.0))

    def balance(self, node: NodeId, now: float) -> float:
        """The token balance ``node`` would hold at time ``now`` (read-only).

        Public accessor for layers that need to *report* bucket state --
        e.g. the serve daemon's ``429`` payloads estimate ``retry_after``
        from the shortfall -- without mutating it.
        """
        return self._tokens_at(node, now)

    def admit(self, pair: Tuple[NodeId, ...], now: float) -> bool:
        """Admit (and charge) or reject the request for ``pair`` arriving at ``now``.

        ``pair`` may be any group key: a multicast request binds resources at
        all ``k`` endpoints, so one token is charged at *each* member —
        atomically, only when every member has one, so a rejection never
        half-drains any bucket.  The two-endpoint case is the classic pair
        contract unchanged.
        """
        tokens = [self._tokens_at(node, now) for node in pair]
        if any(balance < 1.0 for balance in tokens):
            self.rejected_count += 1
            return False
        for node, balance in zip(pair, tokens):
            self._buckets[node] = (balance - 1.0, now)
        self.admitted_count += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AdmissionController(rate={self.rate}, burst={self.burst}, "
            f"admitted={self.admitted_count}, rejected={self.rejected_count})"
        )
