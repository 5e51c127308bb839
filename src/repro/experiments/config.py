"""Experiment configuration.

The paper's Section 5 settings are the defaults: 35 consumer pairs drawn
uniformly from all node pairs, unit generation rate on every generation
edge, every node swapping at the same rate, and an ordered consumption
request sequence.  Everything is overridable so the ablations can move one
knob at a time.

``REPRO_FULL=1`` in the environment switches the sweeps from the quick
defaults (suitable for CI and the benchmark suite) to the full
paper-scale sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.network.topology import EdgeKey
from repro.scenarios.registry import NO_SCENARIO, validate_scenario_spec
from repro.workloads.registry import DEFAULT_WORKLOAD, validate_workload_spec


def full_mode_enabled() -> bool:
    """Whether the full (slow) experiment sweeps were requested via ``REPRO_FULL=1``."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation trial's full parameterisation.

    Attributes mirror Section 5 of the paper; ``docs/reproducing.md`` maps
    them to the experiments and ``docs/architecture.md`` to the pipeline.
    """

    topology: str = "cycle"
    n_nodes: int = 25
    distillation: float = 1.0
    n_consumer_pairs: int = 35
    n_requests: int = 50
    seed: int = 0
    protocol: str = "path-oblivious"
    swaps_per_node_per_round: int = 1
    max_rounds: int = 200_000
    use_hybrid_fallback: bool = False
    knowledge: str = "global"
    gossip_fanout: int = 3
    policy: str = "min-recipient"
    balancer: str = "naive"
    scenario: str = NO_SCENARIO
    workload: str = DEFAULT_WORKLOAD
    policy_max_detour: Optional[int] = None
    extra_edge_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.n_nodes < 3:
            raise ValueError(f"n_nodes must be at least 3, got {self.n_nodes}")
        if self.distillation < 1.0:
            raise ValueError(f"distillation must be >= 1, got {self.distillation}")
        if self.n_consumer_pairs <= 0:
            raise ValueError(f"n_consumer_pairs must be positive, got {self.n_consumer_pairs}")
        if self.n_requests <= 0:
            raise ValueError(f"n_requests must be positive, got {self.n_requests}")
        if self.max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")
        if self.balancer not in ("naive", "incremental"):
            raise ValueError(
                f"balancer must be 'naive' or 'incremental', got {self.balancer!r}"
            )
        # Raises ValueError for unknown names/parameters; the specs enter
        # the config's equality and hash verbatim, so a sweep never merges
        # two configs differing only in scenario or workload.
        validate_scenario_spec(self.scenario)
        validate_workload_spec(self.workload)

    def with_(self, **overrides) -> "ExperimentConfig":
        """A copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)

    def label(self) -> str:
        """Short human-readable label for reports."""
        suffix = "" if self.scenario == NO_SCENARIO else f"/{self.scenario}"
        if self.workload != DEFAULT_WORKLOAD:
            suffix += f"/{self.workload}"
        return (
            f"{self.protocol}/{self.topology}-{self.n_nodes}"
            f"/D={self.distillation:g}/seed={self.seed}{suffix}"
        )


@dataclass
class TrialOutcome:
    """Everything measured from one simulation trial."""

    config: ExperimentConfig
    topology_name: str
    rounds: int
    swaps_performed: int
    requests_total: int
    requests_satisfied: int
    pairs_generated: int
    pairs_consumed: int
    pairs_remaining: int
    overhead_exact: float
    overhead_paper: float
    optimal_swaps_exact: float
    optimal_swaps_paper: float
    mean_waiting_rounds: float
    starvation_ratio: float
    classical_messages: int
    classical_entries: int
    swaps_by_node: Dict = field(default_factory=dict)
    consumption_by_pair: Dict[EdgeKey, int] = field(default_factory=dict)
    #: Per-traffic-class SLO attainment rows (timed workloads only; see
    #: :func:`repro.workloads.slo.slo_summary`), keyed by class name.
    slo: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: How many consumer pairs the trial actually used (can fall short of
    #: the configured ``n_consumer_pairs`` on small topologies).
    effective_consumer_pairs: Optional[int] = None
    #: Structured workload-generation warnings (consumer-pair shortfalls, ...).
    workload_warnings: Tuple[str, ...] = ()
    #: How many multicast consumer groups the trial actually used (``None``
    #: for pair-only workloads; can fall short on small topologies).
    effective_consumer_groups: Optional[int] = None
    #: GHZ-merge (fusion) operations performed while serving group requests.
    fusions_performed: int = 0

    @property
    def all_satisfied(self) -> bool:
        return self.requests_satisfied >= self.requests_total
