"""Building and running individual simulation trials from a config.

:func:`run_trial` is the runtime layer's unit of work: a *pure function of
its config* (every random draw derives from ``config.seed`` via named
streams), which is what lets :class:`repro.runtime.SweepRunner` parallelise
and dedupe trials without changing any result.
"""

from __future__ import annotations

from repro.analysis.overhead import swap_overhead_from_result
from repro.analysis.starvation import starvation_report
from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.knowledge import GossipKnowledge
from repro.core.maxmin.policy import (
    BalancingPolicy,
    DistanceWeightedPolicy,
    MinRecipientCountPolicy,
    RandomPreferablePolicy,
)
from repro.experiments.config import ExperimentConfig, TrialOutcome
from repro.network.demand import RequestSequence
from repro.obs.spans import span
from repro.network.topologies import topology_from_name
from repro.network.topology import Topology
from repro.protocols.base import SwappingProtocol
from repro.protocols.oblivious import PathObliviousProtocol
from repro.protocols.planned import (
    ConnectionOrientedProtocol,
    ConnectionlessProtocol,
    OnDemandProtocol,
)
from repro.runtime.seeding import RandomStreams
from repro.scenarios.registry import build_scenario
from repro.workloads.base import WorkloadBuild
from repro.workloads.queueing import TimedRequestSequence
from repro.workloads.registry import build_workload
from repro.workloads.slo import slo_as_dict, slo_summary

PROTOCOL_NAMES = (
    "path-oblivious",
    "planned-connection-oriented",
    "planned-connectionless",
    "planned-on-demand",
)


def build_topology(config: ExperimentConfig, streams: RandomStreams) -> Topology:
    """Construct the trial's generation graph from its config."""
    kwargs = {}
    if config.topology == "random-grid" and config.extra_edge_fraction > 0:
        kwargs["extra_edge_fraction"] = config.extra_edge_fraction
    return topology_from_name(
        config.topology, config.n_nodes, rng=streams.get("topology"), **kwargs
    )


def build_workload_requests(
    config: ExperimentConfig, topology: Topology, streams: RandomStreams
) -> WorkloadBuild:
    """Materialise the config's workload spec for one trial.

    The default ``"sequence"`` spec reproduces the paper's §5 generation
    bit-identically (same consumer-pair draw, same ordered stream); other
    specs produce arrival-timed, admission-controlled streams
    (:mod:`repro.workloads`).
    """
    return build_workload(
        config.workload,
        topology=topology,
        n_consumer_pairs=config.n_consumer_pairs,
        n_requests=config.n_requests,
        streams=streams,
    )


def _build_policy(config: ExperimentConfig, topology: Topology) -> BalancingPolicy:
    if config.policy == "min-recipient":
        return MinRecipientCountPolicy()
    if config.policy == "random":
        return RandomPreferablePolicy()
    if config.policy == "distance-weighted":
        return DistanceWeightedPolicy(topology, max_detour=config.policy_max_detour)
    raise ValueError(
        f"unknown policy {config.policy!r}; choose min-recipient, random or distance-weighted"
    )


def build_protocol(
    config: ExperimentConfig, topology: Topology, requests: RequestSequence, streams: RandomStreams
) -> SwappingProtocol:
    """Instantiate the protocol named by the config."""
    scenario = build_scenario(
        config.scenario, topology, streams=streams, horizon=config.max_rounds
    )
    if scenario is not None:
        # The scenario mutates the topology as the run progresses; give the
        # protocol its own copy so the caller's topology stays the static
        # reference the post-run analyses (overhead, starvation) compare
        # against.
        topology = topology.copy()
    common = dict(
        topology=topology,
        requests=requests,
        overheads=PairOverheads.uniform(distillation=config.distillation),
        streams=streams,
        max_rounds=config.max_rounds,
        scenario=scenario,
    )
    if config.protocol == "path-oblivious":
        protocol = PathObliviousProtocol(
            policy=_build_policy(config, topology),
            swaps_per_node_per_round=config.swaps_per_node_per_round,
            use_hybrid_fallback=config.use_hybrid_fallback,
            balancer_engine=config.balancer,
            **common,
        )
        # Gossip knowledge reads the protocol's own ledger, so it is built
        # once the protocol exists.
        if config.knowledge == "gossip":
            protocol.balancer.knowledge = GossipKnowledge(
                protocol.ledger, fanout=config.gossip_fanout
            )
        elif config.knowledge != "global":
            raise ValueError(f"unknown knowledge model {config.knowledge!r}")
        return protocol
    if config.protocol == "planned-connection-oriented":
        return ConnectionOrientedProtocol(**common)
    if config.protocol == "planned-connectionless":
        return ConnectionlessProtocol(**common)
    if config.protocol == "planned-on-demand":
        return OnDemandProtocol(**common)
    raise ValueError(f"unknown protocol {config.protocol!r}; choose from {PROTOCOL_NAMES}")


def run_trial(config: ExperimentConfig) -> TrialOutcome:
    """Run one full trial and reduce it to a :class:`TrialOutcome`.

    Every stage is wrapped in an observation-only telemetry span (no-ops
    unless ``REPRO_TELEMETRY`` is set; see :mod:`repro.obs.spans`): spans
    read the wall clock but never any RNG stream, so the outcome is
    byte-identical with telemetry on or off.
    """
    with span(
        "trial.run",
        protocol=config.protocol,
        topology=config.topology,
        n_nodes=config.n_nodes,
        seed=config.seed,
    ):
        streams = RandomStreams(config.seed)
        with span("trial.topology"):
            topology = build_topology(config, streams)
        with span("trial.workload"):
            workload = build_workload_requests(config, topology, streams)
        requests = workload.requests
        with span("trial.routing"):
            protocol = build_protocol(config, topology, requests, streams)
        with span("trial.rounds"):
            result = protocol.run()
        with span("trial.reduce"):
            return _reduce_trial(config, topology, workload, requests, protocol, result)


def _reduce_trial(config, topology, workload, requests, protocol, result) -> TrialOutcome:
    """Fold one protocol run into its :class:`TrialOutcome` (the reduce stage)."""
    exact = swap_overhead_from_result(
        topology, result, distillation=config.distillation, variant="exact"
    )
    paper = swap_overhead_from_result(
        topology, result, distillation=config.distillation, variant="paper"
    )
    starvation = starvation_report(topology, result)
    classical = result.classical_overhead or {}
    slo = {}
    if isinstance(requests, TimedRequestSequence):
        slo = slo_as_dict(slo_summary(requests.requests(), horizon=result.rounds))

    return TrialOutcome(
        config=config,
        topology_name=topology.name,
        rounds=result.rounds,
        swaps_performed=result.swaps_performed,
        requests_total=result.requests_total,
        requests_satisfied=result.requests_satisfied,
        pairs_generated=result.pairs_generated,
        pairs_consumed=result.pairs_consumed,
        pairs_remaining=result.pairs_remaining,
        overhead_exact=exact.overhead,
        overhead_paper=paper.overhead,
        optimal_swaps_exact=exact.optimal_swaps,
        optimal_swaps_paper=paper.optimal_swaps,
        mean_waiting_rounds=result.mean_waiting_rounds(),
        starvation_ratio=starvation.starvation_ratio,
        classical_messages=int(classical.get("messages", 0)),
        classical_entries=int(classical.get("entries", 0)),
        swaps_by_node=result.swaps_by_node,
        consumption_by_pair=protocol.requests.consumption_counts(),
        slo=slo,
        effective_consumer_pairs=len(workload.consumer_pairs),
        workload_warnings=workload.warnings,
        effective_consumer_groups=(
            len(workload.consumer_groups) if workload.consumer_groups else None
        ),
        fusions_performed=result.fusions_performed,
    )
