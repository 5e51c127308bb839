"""Starvation analysis.

Section 6 of the paper observes a starvation effect: "consumption requests
between nodes who are close on the generation graph would usurp the Bell
pairs needed to form the longer paths".  This module quantifies that effect
from a protocol run: per-request waiting times bucketed by shortest-path
length, plus a simple starvation score (how much longer far pairs wait than
near pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.overhead import request_path_lengths
from repro.network.topology import Topology
from repro.protocols.base import ProtocolResult


@dataclass
class StarvationReport:
    """Waiting-time statistics bucketed by request distance."""

    mean_wait_by_distance: Dict[int, float] = field(default_factory=dict)
    requests_by_distance: Dict[int, int] = field(default_factory=dict)
    unsatisfied_requests: int = 0
    starvation_ratio: float = float("nan")

    def distances(self) -> List[int]:
        return sorted(self.mean_wait_by_distance)


def starvation_report(topology: Topology, result: ProtocolResult) -> StarvationReport:
    """Bucket satisfied-request waiting times by generation-graph distance.

    The ``starvation_ratio`` is the mean wait of the farthest-distance bucket
    divided by the mean wait of the nearest-distance bucket (``nan`` when
    either bucket is empty or has zero mean); values well above 1 indicate
    the long-path starvation the paper describes.
    """
    waits_by_distance: Dict[int, List[float]] = {}
    lengths = request_path_lengths(topology, result.satisfied_requests)
    for request, distance in zip(result.satisfied_requests, lengths):
        wait = request.waiting_rounds
        if wait is None:
            continue
        waits_by_distance.setdefault(distance, []).append(float(wait))

    report = StarvationReport(
        unsatisfied_requests=result.requests_total - result.requests_satisfied
    )
    for distance, waits in waits_by_distance.items():
        report.mean_wait_by_distance[distance] = sum(waits) / len(waits)
        report.requests_by_distance[distance] = len(waits)

    if report.mean_wait_by_distance:
        nearest = min(report.mean_wait_by_distance)
        farthest = max(report.mean_wait_by_distance)
        near_wait = report.mean_wait_by_distance[nearest]
        far_wait = report.mean_wait_by_distance[farthest]
        if nearest != farthest and near_wait > 0:
            report.starvation_ratio = far_wait / near_wait
    return report
