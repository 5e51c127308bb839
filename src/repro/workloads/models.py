"""Concrete workload builders: the paper's sequence, arrival models, replay.

Each builder is a pure function of ``(parameters, topology, seed)``: pair
selection always draws from the trial's ``"consumers"`` stream and the
paper's ``sequence`` workload draws its ordering from ``"requests"`` --
exactly the streams the pre-subsystem code used, which is what keeps the
default workload bit-identical to the paper reproduction (golden traces
included).  Timed workloads draw arrivals, pair choices, traffic classes
and batch sizes from the dedicated ``"workload"`` stream, so adding them
perturbs nothing else.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.network.demand import (
    ConsumerPairShortfallWarning,
    RequestSequence,
    select_consumer_groups,
    select_consumer_pairs,
)
from repro.network.topology import EdgeKey, GroupKey, Topology, edge_key
from repro.protocols.fusion import DEFAULT_GROUP_STRATEGY
from repro.runtime.seeding import RandomStreams
from repro.workloads.admission import AdmissionController
from repro.workloads.arrivals import (
    counts_to_rounds,
    diurnal_rates,
    mmpp_rates,
    modulated_poisson_counts,
    pareto_batch_sizes,
    poisson_counts,
)
from repro.workloads.base import (
    CLASS_MIXES,
    DEFAULT_MIX,
    TRAFFIC_CLASSES,
    TimedRequest,
    WorkloadBuild,
)
from repro.workloads.queueing import TimedRequestSequence

#: RNG stream all timed-workload draws come from.
WORKLOAD_STREAM = "workload"


def draw_consumer_pairs(
    topology: Topology, n_pairs: int, streams: RandomStreams
) -> "tuple[List[EdgeKey], tuple]":
    """The paper's consumer-pair draw, with shortfalls captured as metadata.

    Returns ``(pairs, warnings)`` where ``warnings`` holds the rendered
    :class:`~repro.network.demand.ConsumerPairShortfallWarning` messages (the
    warnings are still emitted for interactive callers; experiment results
    additionally record them so a silently shrunken workload is visible in
    the trial metadata).
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConsumerPairShortfallWarning)
        pairs = select_consumer_pairs(topology, n_pairs, streams.get("consumers"))
    shortfalls = [
        entry.message
        for entry in caught
        if issubclass(entry.category, ConsumerPairShortfallWarning)
    ]
    for shortfall in shortfalls:
        warnings.warn(shortfall, stacklevel=2)
    return pairs, tuple(str(shortfall) for shortfall in shortfalls)


def draw_consumer_groups(
    topology: Topology, n_groups: int, group_size: int, streams: RandomStreams
) -> "tuple[List[GroupKey], tuple]":
    """Multicast analogue of :func:`draw_consumer_pairs`.

    Draws from the same ``"consumers"`` stream (after the pair draw, so
    pair-only workloads consume an identical stream prefix) and captures the
    generalized shortfall warnings the same way.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConsumerPairShortfallWarning)
        groups = select_consumer_groups(
            topology, n_groups, streams.get("consumers"), group_size=group_size
        )
    shortfalls = [
        entry.message
        for entry in caught
        if issubclass(entry.category, ConsumerPairShortfallWarning)
    ]
    for shortfall in shortfalls:
        warnings.warn(shortfall, stacklevel=2)
    return groups, tuple(str(shortfall) for shortfall in shortfalls)


def build_sequence_workload(
    spec: str,
    topology: Topology,
    n_consumer_pairs: int,
    n_requests: int,
    streams: RandomStreams,
) -> WorkloadBuild:
    """The paper's workload, bit-identical to the pre-subsystem generation."""
    pairs, shortfalls = draw_consumer_pairs(topology, n_consumer_pairs, streams)
    requests = RequestSequence.generate(pairs, n_requests, streams.get("requests"))
    return WorkloadBuild(spec=spec, requests=requests, consumer_pairs=pairs, warnings=shortfalls)


def _admission_from(params: Dict) -> Optional[AdmissionController]:
    rate = float(params.get("admission_rate", 0.0))
    if rate <= 0:
        return None
    return AdmissionController(rate=rate, burst=float(params.get("admission_burst", 5)))


def _group_settings(params: Dict, default_fraction: float = 0.0) -> "tuple[float, int, str]":
    """The multicast emission knobs every timed workload shares."""
    fraction = float(params.get("group_fraction", default_fraction))
    size = int(params.get("group_size", 3))
    strategy = str(params.get("group_strategy", DEFAULT_GROUP_STRATEGY))
    return fraction, size, strategy


def _maybe_draw_groups(
    topology: Topology,
    n_consumer_pairs: int,
    params: Dict,
    streams: RandomStreams,
    default_fraction: float = 0.0,
) -> "tuple[List[GroupKey], tuple]":
    """Draw the trial's multicast groups when the spec asks for them.

    Returns ``([], ())`` — touching no RNG stream — when ``group_fraction``
    is zero, which is what keeps every pre-existing timed spec bit-identical.
    The group draw happens *after* the pair draw on the same ``"consumers"``
    stream, so the pair set matches the pair-only run of the same seed.
    """
    fraction, size, _strategy = _group_settings(params, default_fraction)
    if fraction <= 0:
        return [], ()
    return draw_consumer_groups(topology, n_consumer_pairs, size, streams)


def _assemble_timed(
    spec: str,
    arrival_rounds: np.ndarray,
    pairs: List[EdgeKey],
    shortfalls: tuple,
    params: Dict,
    rng: np.random.Generator,
    groups: Optional[List[GroupKey]] = None,
    default_group_fraction: float = 0.0,
) -> WorkloadBuild:
    """Tag arrivals with pairs/groups and traffic classes, then queue them.

    Group emission draws (the per-arrival Bernoulli and group choice) happen
    only when ``groups`` is non-empty and the fraction positive — after the
    pair and class draws — so pair-only workloads consume exactly the
    historical ``"workload"`` stream prefix.
    """
    mix_name = str(params.get("mix", DEFAULT_MIX))
    mix = CLASS_MIXES[mix_name]
    class_names = sorted(mix)
    weights = np.array([mix[name] for name in class_names], dtype=float)
    probabilities = weights / weights.sum()
    n = len(arrival_rounds)
    pair_choices = rng.choice(len(pairs), size=n)
    class_choices = rng.choice(len(class_names), size=n, p=probabilities)
    fraction, _size, strategy = _group_settings(params, default_group_fraction)
    groups = groups or []
    group_flags = None
    if groups and fraction > 0 and n:
        group_flags = rng.random(n) < fraction
        group_choices = rng.choice(len(groups), size=n)
    requests: List[TimedRequest] = []
    for i in range(n):
        if group_flags is not None and group_flags[i]:
            target = groups[int(group_choices[i])]
            request_strategy: Optional[str] = strategy
        else:
            target = pairs[int(pair_choices[i])]
            request_strategy = None
        requests.append(
            TimedRequest(
                index=i,
                pair=target,
                arrival_round=int(arrival_rounds[i]),
                traffic_class=TRAFFIC_CLASSES[class_names[int(class_choices[i])]],
                strategy=request_strategy,
            )
        )
    sequence = TimedRequestSequence(
        requests,
        policy=str(params.get("queue", "fifo")),
        admission=_admission_from(params),
    )
    return WorkloadBuild(
        spec=spec,
        requests=sequence,
        consumer_pairs=pairs,
        warnings=shortfalls,
        consumer_groups=list(groups),
    )


def _batched(arrival_rounds: np.ndarray, params: Dict, rng: np.random.Generator) -> np.ndarray:
    """Expand arrivals into heavy-tailed batches when ``batch_alpha`` is set."""
    alpha = float(params.get("batch_alpha", 0.0))
    if alpha <= 0 or len(arrival_rounds) == 0:
        return arrival_rounds
    sizes = pareto_batch_sizes(
        alpha, len(arrival_rounds), rng, cap=int(params.get("batch_cap", 16))
    )
    return np.repeat(arrival_rounds, sizes)


def _horizon_for(params: Dict, n_requests: int, mean_rate: float) -> int:
    """Rounds of arrivals to sample: explicit, or enough to cover the budget."""
    explicit = params.get("horizon")
    if explicit is not None:
        return int(explicit)
    return max(1, int(np.ceil(4.0 * n_requests / max(mean_rate, 1e-9))))


def build_poisson_workload(
    spec: str,
    topology: Topology,
    n_consumer_pairs: int,
    n_requests: int,
    streams: RandomStreams,
    params: Dict,
) -> WorkloadBuild:
    """Homogeneous Poisson arrivals (optionally with Pareto batches)."""
    pairs, shortfalls = draw_consumer_pairs(topology, n_consumer_pairs, streams)
    groups, group_shortfalls = _maybe_draw_groups(topology, n_consumer_pairs, params, streams)
    rng = streams.get(WORKLOAD_STREAM)
    rate = float(params.get("rate", 2.0))
    horizon = _horizon_for(params, n_requests, rate)
    rounds = counts_to_rounds(poisson_counts(rate, horizon, rng))
    rounds = _batched(rounds, params, rng)[:n_requests]
    return _assemble_timed(
        spec, rounds, pairs, shortfalls + group_shortfalls, params, rng, groups=groups
    )


def build_bursty_workload(
    spec: str,
    topology: Topology,
    n_consumer_pairs: int,
    n_requests: int,
    streams: RandomStreams,
    params: Dict,
) -> WorkloadBuild:
    """Two-state MMPP arrivals: calm background punctuated by bursts."""
    pairs, shortfalls = draw_consumer_pairs(topology, n_consumer_pairs, streams)
    groups, group_shortfalls = _maybe_draw_groups(topology, n_consumer_pairs, params, streams)
    shortfalls = shortfalls + group_shortfalls
    rng = streams.get(WORKLOAD_STREAM)
    rate_low = float(params.get("rate_low", 0.5))
    rate_high = float(params.get("rate_high", 6.0))
    mean_calm = float(params.get("mean_calm", 40.0))
    mean_burst = float(params.get("mean_burst", 10.0))
    mean_rate = (rate_low * mean_calm + rate_high * mean_burst) / (mean_calm + mean_burst)
    horizon = _horizon_for(params, n_requests, mean_rate)
    rates = mmpp_rates(
        rate_low, rate_high, horizon, rng, mean_calm=mean_calm, mean_burst=mean_burst
    )
    rounds = counts_to_rounds(modulated_poisson_counts(rates, rng))
    rounds = _batched(rounds, params, rng)[:n_requests]
    return _assemble_timed(spec, rounds, pairs, shortfalls, params, rng, groups=groups)


def build_diurnal_workload(
    spec: str,
    topology: Topology,
    n_consumer_pairs: int,
    n_requests: int,
    streams: RandomStreams,
    params: Dict,
) -> WorkloadBuild:
    """Poisson arrivals under sinusoidal (day/night) rate modulation."""
    pairs, shortfalls = draw_consumer_pairs(topology, n_consumer_pairs, streams)
    groups, group_shortfalls = _maybe_draw_groups(topology, n_consumer_pairs, params, streams)
    rng = streams.get(WORKLOAD_STREAM)
    rate = float(params.get("rate", 2.0))
    horizon = _horizon_for(params, n_requests, rate)
    rates = diurnal_rates(
        rate,
        horizon,
        period=int(params.get("period", 100)),
        amplitude=float(params.get("amplitude", 0.8)),
    )
    rounds = counts_to_rounds(modulated_poisson_counts(rates, rng))
    rounds = _batched(rounds, params, rng)[:n_requests]
    return _assemble_timed(
        spec, rounds, pairs, shortfalls + group_shortfalls, params, rng, groups=groups
    )


#: ``group_fraction`` used by the ``multicast`` workload when the spec does
#: not set one: half the arrivals are GHZ group requests.
MULTICAST_DEFAULT_FRACTION = 0.5


def build_multicast_workload(
    spec: str,
    topology: Topology,
    n_consumer_pairs: int,
    n_requests: int,
    streams: RandomStreams,
    params: Dict,
) -> WorkloadBuild:
    """Poisson arrivals mixing pair and GHZ-group (multicast) requests.

    Like ``poisson``, but ``group_fraction`` defaults to
    :data:`MULTICAST_DEFAULT_FRACTION` instead of zero, so the spec
    ``"multicast"`` alone already exercises multicast serving: each arrival
    is, with that probability, a request for one of the trial's consumer
    groups (size ``group_size``, served with ``group_strategy``) instead of
    a consumer pair.
    """
    pairs, shortfalls = draw_consumer_pairs(topology, n_consumer_pairs, streams)
    groups, group_shortfalls = _maybe_draw_groups(
        topology, n_consumer_pairs, params, streams,
        default_fraction=MULTICAST_DEFAULT_FRACTION,
    )
    rng = streams.get(WORKLOAD_STREAM)
    rate = float(params.get("rate", 2.0))
    horizon = _horizon_for(params, n_requests, rate)
    rounds = counts_to_rounds(poisson_counts(rate, horizon, rng))
    rounds = _batched(rounds, params, rng)[:n_requests]
    return _assemble_timed(
        spec,
        rounds,
        pairs,
        shortfalls + group_shortfalls,
        params,
        rng,
        groups=groups,
        default_group_fraction=MULTICAST_DEFAULT_FRACTION,
    )


def build_replay_workload(
    spec: str,
    topology: Topology,
    n_consumer_pairs: int,
    n_requests: int,
    streams: RandomStreams,
    params: Dict,
) -> WorkloadBuild:
    """Replay a recorded JSONL trace of timestamped, classed requests.

    Each line is ``{"round": R, "pair": [a, b], "class": "standard"}``
    (``class`` optional, default ``bulk``).  The trace is used verbatim --
    ``n_requests`` and the consumer-pair draw do not apply -- so replay
    trials are reproducible records of external workloads.  The trace is
    read when the trial runs, so the next run sees an edited trace.
    """
    path = Path(str(params["file"])).expanduser()
    if not path.is_file():
        raise ValueError(f"replay workload trace {str(path)!r} does not exist")
    requests: List[TimedRequest] = []
    pairs_seen: Dict[EdgeKey, None] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{line_no}: malformed JSONL record") from error
        try:
            round_index = int(record["round"])
            node_a, node_b = record["pair"]
            class_name = str(record.get("class", "bulk"))
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(
                f"{path}:{line_no}: replay records need 'round' and 'pair': [a, b]"
            ) from error
        if round_index < 0:
            raise ValueError(f"{path}:{line_no}: arrival round must be non-negative")
        if node_a not in topology or node_b not in topology:
            raise ValueError(
                f"{path}:{line_no}: pair ({node_a!r}, {node_b!r}) not in the topology"
            )
        if class_name not in TRAFFIC_CLASSES:
            raise ValueError(
                f"{path}:{line_no}: unknown traffic class {class_name!r}; "
                f"choose from {', '.join(sorted(TRAFFIC_CLASSES))}"
            )
        pair = edge_key(node_a, node_b)
        pairs_seen.setdefault(pair)
        requests.append(
            TimedRequest(
                index=len(requests),
                pair=pair,
                arrival_round=round_index,
                traffic_class=TRAFFIC_CLASSES[class_name],
            )
        )
    if not requests:
        raise ValueError(f"replay workload trace {str(path)!r} holds no requests")
    sequence = TimedRequestSequence(
        requests,
        policy=str(params.get("queue", "fifo")),
        admission=_admission_from(params),
    )
    return WorkloadBuild(
        spec=spec, requests=sequence, consumer_pairs=list(pairs_seen), warnings=()
    )
