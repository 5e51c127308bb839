"""Experiment E4: path-oblivious vs planned-path baselines.

The paper compares its protocol against an *analytic* planned-path optimum
(the overhead denominator).  This experiment additionally runs concrete
planned-path protocols on exactly the same workload -- same topology, same
consumer pairs, same request sequence, same generation -- so the
trade-off the paper argues for (a modest swap overhead bought in exchange
for much lower serving latency once state is pre-positioned) can be
quantified rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.reporting import format_table
from repro.experiments.api import Experiment, ExperimentResult, ParamSpec
from repro.experiments.config import ExperimentConfig, TrialOutcome
from repro.experiments.registry import register
from repro.experiments.runner import PROTOCOL_NAMES
from repro.network.topologies import validate_topology_sizes

#: Protocols compared by default.
DEFAULT_PROTOCOLS: Tuple[str, ...] = PROTOCOL_NAMES


@dataclass
class ComparisonResult(ExperimentResult):
    """Per-protocol outcomes on a shared workload."""

    experiment = "comparison"
    COLUMNS = (
        "protocol",
        "swaps",
        "overhead_exact",
        "rounds",
        "mean_waiting_rounds",
        "satisfied",
        "pairs_generated",
        "pairs_remaining",
    )

    topology: str
    n_nodes: int
    distillation: float
    outcomes: List[TrialOutcome] = field(default_factory=list)

    def by_protocol(self) -> Dict[str, TrialOutcome]:
        return {outcome.config.protocol: outcome for outcome in self.outcomes}

    def rows(self) -> List[Tuple]:
        rows: List[Tuple] = []
        for outcome in self.outcomes:
            rows.append(
                (
                    outcome.config.protocol,
                    outcome.swaps_performed,
                    outcome.overhead_exact,
                    outcome.rounds,
                    outcome.mean_waiting_rounds,
                    f"{outcome.requests_satisfied}/{outcome.requests_total}",
                    outcome.pairs_generated,
                    outcome.pairs_remaining,
                )
            )
        return rows

    def format_report(self) -> str:
        headers = (
            "protocol",
            "swaps",
            "overhead",
            "rounds",
            "mean wait",
            "satisfied",
            "pairs generated",
            "pairs left",
        )
        title = (
            f"E4: protocol comparison ({self.topology}, |N|={self.n_nodes}, "
            f"D={self.distillation:g})"
        )
        return format_table(headers, self.rows(), title=title)


@register
class ComparisonExperiment(Experiment):
    """The protocol comparison as a registered experiment."""

    name = "comparison"
    summary = "Path-oblivious vs planned-path protocols on one identical workload (E4 trade-off)."
    params = (
        ParamSpec("topology", str, "cycle", "topology family for the shared workload"),
        ParamSpec("n_nodes", int, 25, "number of nodes |N|", flag="--nodes"),
        ParamSpec(
            "distillation",
            float,
            1.0,
            "distillation overhead D for the single workload point",
            flag="--distillation-single",
        ),
        ParamSpec("n_requests", int, 50, "length of the consumption request sequence", flag="--requests"),
        ParamSpec(
            "balancer",
            str,
            "naive",
            "path-oblivious balancing engine (the planned baselines ignore it)",
            choices=("naive", "incremental"),
        ),
        ParamSpec("protocols", tuple, DEFAULT_PROTOCOLS, "protocols to run", cli=False),
        ParamSpec("n_consumer_pairs", int, 20, "consumer pairs drawn per trial", cli=False),
        ParamSpec("seed", int, 2, "workload seed", cli=False),
        ParamSpec("max_rounds", int, 200_000, "safety cap on simulated rounds", cli=False),
    )

    def normalize(self, params):
        validate_topology_sizes((params["topology"],), (params["n_nodes"],))
        return params

    def build_grid(self, params) -> List[ExperimentConfig]:
        base = ExperimentConfig(
            topology=params["topology"],
            n_nodes=params["n_nodes"],
            distillation=params["distillation"],
            n_consumer_pairs=params["n_consumer_pairs"],
            n_requests=params["n_requests"],
            seed=params["seed"],
            max_rounds=params["max_rounds"],
            balancer=params["balancer"],
        )
        return [base.with_(protocol=name) for name in params["protocols"]]

    def reduce(self, outcomes: List[TrialOutcome], params) -> ComparisonResult:
        return ComparisonResult(
            topology=params["topology"],
            n_nodes=params["n_nodes"],
            distillation=params["distillation"],
            outcomes=outcomes,
        )
