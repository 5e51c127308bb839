"""SLO-attainment metrics for timed workloads.

After a run, every :class:`~repro.workloads.base.TimedRequest` carries its
full life cycle (arrival, admission, optional drop, satisfaction round);
:func:`slo_summary` folds those into per-traffic-class attainment rows --
p50/p95/p99 arrival-to-service latency (exact :func:`quantile`
interpolation over every satisfied request), deadline-miss and rejection
rates -- plus a ``total`` aggregate.  The rows serialise to
plain dicts (:func:`slo_as_dict`) so they travel inside
:class:`~repro.experiments.config.TrialOutcome` across the worker pool
and the JSON result surface unchanged.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

from repro.workloads.base import TimedRequest

#: Key of the cross-class aggregate row in an SLO summary.
TOTAL_KEY = "total"


@dataclass
class ClassSlo:
    """SLO attainment of one traffic class over one run."""

    traffic_class: str
    arrivals: int
    admitted: int
    rejected: int
    dropped: int
    satisfied: int
    p50_latency: float
    p95_latency: float
    p99_latency: float
    deadline_misses: int
    rejection_rate: float
    deadline_miss_rate: float


def quantile(samples: Iterable[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) of ``samples``, interpolated linearly.

    Exact: sorts every sample, takes position ``q * (n - 1)`` and blends the
    two samples around it.  ``nan`` when there are no samples.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    ordered = sorted(float(value) for value in samples)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def _missed(request: TimedRequest, horizon: Optional[float]) -> bool:
    """SLO miss: served late, dropped, or still unserved past the deadline.

    The last case needs the run ``horizon`` (how far simulated time got):
    an admitted request whose deadline expired before the run ended blew
    its SLO even though nothing ever stamped it -- without this, a starved
    queue would report a perfect miss rate.
    """
    if request.missed_deadline:
        return True
    if horizon is None or request.satisfied or request.rejected:
        return False
    deadline = request.deadline_round
    return deadline is not None and deadline < horizon


def _class_row(name: str, requests: List[TimedRequest], horizon: Optional[float]) -> ClassSlo:
    latencies: List[float] = []
    admitted = rejected = dropped = satisfied = misses = 0
    for request in requests:
        if request.rejected:
            rejected += 1
            continue
        if request.admitted:
            admitted += 1
        if request.dropped:
            dropped += 1
        if request.satisfied:
            satisfied += 1
            latency = request.latency_rounds
            if latency is not None:
                latencies.append(latency)
        if _missed(request, horizon):
            misses += 1
    arrivals = len(requests)
    return ClassSlo(
        traffic_class=name,
        arrivals=arrivals,
        admitted=admitted,
        rejected=rejected,
        dropped=dropped,
        satisfied=satisfied,
        p50_latency=quantile(latencies, 0.50),
        p95_latency=quantile(latencies, 0.95),
        p99_latency=quantile(latencies, 0.99),
        deadline_misses=misses,
        rejection_rate=rejected / arrivals if arrivals else 0.0,
        deadline_miss_rate=misses / admitted if admitted else 0.0,
    )


def slo_summary(
    requests: Iterable[TimedRequest], horizon: Optional[float] = None
) -> Dict[str, ClassSlo]:
    """Per-class SLO rows (plus the ``total`` aggregate), keyed by class name.

    ``horizon`` is how far simulated time got (rounds executed); when given,
    admitted requests whose deadline expired before the run ended count as
    deadline misses even though they were never served or dropped.
    """
    everything = list(requests)
    by_class: Dict[str, List[TimedRequest]] = {}
    for request in everything:
        by_class.setdefault(request.traffic_class.name, []).append(request)
    summary = {
        name: _class_row(name, members, horizon)
        for name, members in sorted(by_class.items())
    }
    summary[TOTAL_KEY] = _class_row(TOTAL_KEY, everything, horizon)
    return summary


def group_slo_summary(
    requests: Iterable[TimedRequest], horizon: Optional[float] = None
) -> Dict[str, ClassSlo]:
    """SLO rows aggregated by *group size* instead of traffic class.

    Multicast workloads mix 2-party and k-party requests; folding them into
    one latency histogram hides that group requests (which need several
    sessions at once) systematically wait longer.  Rows are keyed
    ``"size-2"``, ``"size-3"``, ... by each request's group-key size, plus
    the usual ``total`` aggregate, and carry the same p50/p95/p99 latency
    and miss-rate fields as the per-class rows.
    """
    everything = list(requests)
    by_size: Dict[str, List[TimedRequest]] = {}
    for request in everything:
        by_size.setdefault(f"size-{len(request.pair)}", []).append(request)
    summary = {
        name: _class_row(name, members, horizon)
        for name, members in sorted(by_size.items())
    }
    summary[TOTAL_KEY] = _class_row(TOTAL_KEY, everything, horizon)
    return summary


def slo_as_dict(summary: Dict[str, ClassSlo]) -> Dict[str, Dict[str, float]]:
    """The summary as plain nested dicts (picklable, JSON-ready)."""
    return {name: asdict(row) for name, row in summary.items()}
