"""Core traffic-workload types: traffic classes and timestamped requests.

The paper's workload is a single ordered request sequence with no notion of
time-varying demand or service differentiation.  This module introduces the
two primitives every richer workload is built from:

* :class:`TrafficClass` -- an SLO bundle (priority, latency deadline) a
  request is tagged with, and
* :class:`TimedRequest` -- a consumption request that *arrives* at a
  simulated round instead of existing from round zero.

Named classes (:data:`TRAFFIC_CLASSES`) and class mixes
(:data:`CLASS_MIXES`) keep workload specs declarative: a spec names a mix,
never an ad-hoc class object, so the spec string remains a faithful part
of the trial's config identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.network.demand import ConsumptionRequest, RequestSequence
from repro.network.topology import EdgeKey, GroupKey


@dataclass(frozen=True)
class TrafficClass:
    """One service class: how urgent and how demanding a request is.

    Attributes
    ----------
    name:
        Registry key (``"bulk"``, ``"standard"``, ``"premium"``).
    priority:
        Larger is more important; the ``priority`` queueing policy serves
        the highest-priority queued request first.
    deadline:
        Latency SLO in simulated rounds from arrival (``None`` = none).
        The ``deadline`` queueing policy drops requests whose deadline has
        passed; every policy reports deadline misses.
    """

    name: str
    priority: int
    deadline: Optional[int]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a traffic class needs a non-empty name")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive or None, got {self.deadline}")


#: The named service classes workload specs can hand out.
TRAFFIC_CLASSES: Dict[str, TrafficClass] = {
    "bulk": TrafficClass(name="bulk", priority=0, deadline=None),
    "standard": TrafficClass(name="standard", priority=1, deadline=60),
    "premium": TrafficClass(name="premium", priority=2, deadline=20),
}

#: Named class mixes a workload spec can request (``mix=...``).  Weights are
#: normalised at draw time; the names keep specs declarative and cacheable.
CLASS_MIXES: Dict[str, Dict[str, float]] = {
    "balanced": {"bulk": 1.0, "standard": 1.0, "premium": 1.0},
    "bulk": {"bulk": 1.0},
    "standard-heavy": {"bulk": 0.25, "standard": 0.55, "premium": 0.2},
    "premium-heavy": {"bulk": 0.2, "standard": 0.3, "premium": 0.5},
}

#: Mix used when a spec does not pick one.
DEFAULT_MIX = "standard-heavy"


@dataclass
class TimedRequest(ConsumptionRequest):
    """A consumption request that arrives at ``arrival_round``.

    Extends the paper's :class:`~repro.network.demand.ConsumptionRequest`
    with an arrival time, a traffic class, and the admission bookkeeping the
    SLO report reads back (``admitted`` stays ``None`` until the request is
    released into the simulation).
    """

    arrival_round: int = 0
    traffic_class: TrafficClass = TRAFFIC_CLASSES["bulk"]
    admitted: Optional[bool] = None
    dropped_round: Optional[int] = None

    @property
    def deadline_round(self) -> Optional[float]:
        """Absolute round by which the SLO wants the request served."""
        if self.traffic_class.deadline is None:
            return None
        return self.arrival_round + self.traffic_class.deadline

    @property
    def rejected(self) -> bool:
        return self.admitted is False

    @property
    def dropped(self) -> bool:
        return self.dropped_round is not None

    @property
    def latency_rounds(self) -> Optional[float]:
        """Arrival-to-satisfaction latency (the SLO quantity), once served."""
        if self.satisfied_round is None:
            return None
        return self.satisfied_round - self.arrival_round

    @property
    def missed_deadline(self) -> bool:
        """Whether the request violated its latency SLO (served late or dropped)."""
        if self.traffic_class.deadline is None:
            return False
        if self.dropped:
            return True
        latency = self.latency_rounds
        return latency is not None and latency > self.traffic_class.deadline


@dataclass
class WorkloadBuild:
    """Everything one workload spec produced for one trial.

    ``requests`` is what the protocols consume (a plain
    :class:`~repro.network.demand.RequestSequence` for the paper's
    ``sequence`` workload, a
    :class:`~repro.workloads.queueing.TimedRequestSequence` otherwise);
    ``consumer_pairs`` and ``warnings`` are the result metadata the trial
    records (effective pair count, consumer-pair shortfalls, ...);
    ``consumer_groups`` holds the multicast groups (size >= 3) the workload
    may emit requests for, empty for pair-only workloads.
    """

    spec: str
    requests: RequestSequence
    consumer_pairs: List[EdgeKey] = field(default_factory=list)
    warnings: Tuple[str, ...] = ()
    consumer_groups: List[GroupKey] = field(default_factory=list)
