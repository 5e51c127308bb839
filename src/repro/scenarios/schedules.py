"""Failure/churn schedule generators.

These turn a process description (deterministic rotation, Poisson arrivals)
into a concrete perturbation list over a finite horizon.  Everything random
draws from the named stream ``"scenario"`` of the trial's
:class:`~repro.runtime.seeding.RandomStreams`, so a schedule -- like every
other stochastic component -- is a pure function of the experiment seed.

Node and edge orderings are canonicalised by ``repr`` (the same convention
as :func:`repro.network.topology.edge_key`), never by hash or insertion
order, so schedules are identical across processes and Python versions.
"""

from __future__ import annotations

import math
from typing import Hashable, List, Optional

import numpy as np

from repro.network.topology import EdgeKey, Topology
from repro.scenarios.perturbations import (
    DecoherenceRamp,
    DemandShift,
    LinkFailure,
    LinkRepair,
    NodeLeave,
    NodeRejoin,
    Perturbation,
)

NodeId = Hashable


def _sorted_edges(topology: Topology) -> List[EdgeKey]:
    return sorted(topology.edges(), key=repr)


def _sorted_nodes(topology: Topology) -> List[NodeId]:
    return sorted(topology.nodes, key=repr)


def deterministic_link_churn(
    topology: Topology,
    start: int = 10,
    period: int = 25,
    downtime: int = 10,
    count: int = 8,
    drop_pairs: bool = False,
    horizon: Optional[int] = None,
) -> List[Perturbation]:
    """A fixed rotation of link failures: one edge down every ``period`` rounds.

    Event ``i`` fails edge ``i mod |E|`` (in canonical order) at round
    ``start + i * period`` and repairs it ``downtime`` rounds later.  With
    ``downtime < period`` at most one scheduled edge is down at a time, so a
    connected topology that remains connected under single-edge removal
    never partitions.
    """
    if start < 0 or period <= 0 or downtime <= 0 or count <= 0:
        raise ValueError("start must be >= 0 and period/downtime/count positive")
    edges = _sorted_edges(topology)
    if not edges:
        return []
    perturbations: List[Perturbation] = []
    for index in range(count):
        failure_round = start + index * period
        if horizon is not None and failure_round >= horizon:
            break
        edge = edges[index % len(edges)]
        perturbations.append(LinkFailure(float(failure_round), edge, drop_pairs=drop_pairs))
        perturbations.append(LinkRepair(float(failure_round + downtime), edge))
    return perturbations


def poisson_link_churn(
    topology: Topology,
    rng: np.random.Generator,
    rate: float = 0.01,
    mean_downtime: float = 10.0,
    span: int = 400,
    drop_pairs: bool = False,
    max_events: int = 500,
) -> List[Perturbation]:
    """Memoryless link churn: each edge fails as a Poisson process.

    Per edge, failure inter-arrival times are exponential with mean
    ``1/rate`` rounds and each outage lasts ``1 + Exp(mean_downtime)``
    rounds (rounded to whole rounds).  ``span`` bounds the schedule horizon
    and ``max_events`` the total event count, so a long ``max_rounds``
    cannot produce an unbounded perturbation list.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if mean_downtime <= 0:
        raise ValueError(f"mean_downtime must be positive, got {mean_downtime}")
    if span <= 0:
        raise ValueError(f"span must be positive, got {span}")
    perturbations: List[Perturbation] = []
    events = 0
    for edge in _sorted_edges(topology):
        clock = 0.0
        while events < max_events:
            clock += rng.exponential(1.0 / rate)
            if clock >= span:
                break
            failure_round = float(math.floor(clock))
            downtime = 1.0 + float(math.floor(rng.exponential(mean_downtime)))
            perturbations.append(LinkFailure(failure_round, edge, drop_pairs=drop_pairs))
            perturbations.append(LinkRepair(failure_round + downtime, edge))
            events += 1
            clock += downtime
    return perturbations


def node_churn(
    topology: Topology,
    start: int = 15,
    period: int = 30,
    downtime: int = 12,
    count: int = 4,
    horizon: Optional[int] = None,
) -> List[Perturbation]:
    """A fixed rotation of node leave/rejoin events.

    Event ``i`` takes node ``1 + (i mod (|N| - 1))`` (canonical order,
    skipping the first node so at least one stable anchor remains) out at
    round ``start + i * period`` and rejoins it ``downtime`` rounds later.
    """
    if start < 0 or period <= 0 or downtime <= 0 or count <= 0:
        raise ValueError("start must be >= 0 and period/downtime/count positive")
    nodes = _sorted_nodes(topology)
    if len(nodes) < 2:
        return []
    candidates = nodes[1:]
    perturbations: List[Perturbation] = []
    for index in range(count):
        leave_round = start + index * period
        if horizon is not None and leave_round >= horizon:
            break
        node = candidates[index % len(candidates)]
        perturbations.append(NodeLeave(float(leave_round), node))
        perturbations.append(NodeRejoin(float(leave_round + downtime), node))
    return perturbations


def demand_drift(
    topology: Topology,
    start: int = 10,
    period: int = 20,
    count: int = 4,
    fraction: float = 0.5,
    horizon: Optional[int] = None,
) -> List[Perturbation]:
    """Hotspot migration: every ``period`` rounds the hotspot moves on.

    Shift ``i`` redirects ``fraction`` of the then-pending demand toward
    node ``i mod |N|`` (canonical order), modelling a consumption hotspot
    wandering through the network.
    """
    if start < 0 or period <= 0 or count <= 0:
        raise ValueError("start must be >= 0 and period/count positive")
    nodes = _sorted_nodes(topology)
    if not nodes:
        return []
    perturbations: List[Perturbation] = []
    for index in range(count):
        shift_round = start + index * period
        if horizon is not None and shift_round >= horizon:
            break
        hotspot = nodes[index % len(nodes)]
        perturbations.append(DemandShift(float(shift_round), hotspot, fraction=fraction))
    return perturbations


def decoherence_ramp(
    start: int = 10,
    period: int = 20,
    count: int = 3,
    factor: float = 1.5,
    horizon: Optional[int] = None,
) -> List[Perturbation]:
    """A staircase decoherence ramp: rate multiplied by ``factor`` per step."""
    if start < 0 or period <= 0 or count <= 0:
        raise ValueError("start must be >= 0 and period/count positive")
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    perturbations: List[Perturbation] = []
    for index in range(count):
        ramp_round = start + index * period
        if horizon is not None and ramp_round >= horizon:
            break
        perturbations.append(DecoherenceRamp(float(ramp_round), factor=factor))
    return perturbations
