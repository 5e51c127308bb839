"""Experiment E6: classical control-plane overhead.

Sections 2 and 6 of the paper flag classical signalling as the path-oblivious
approach's main cost.  This experiment drives a balancing workload while two
dissemination strategies account their classical traffic side by side:

* full flooding of every node's count vector every round (the paper's base
  knowledge assumption), and
* the BitTorrent-like choke/unchoke gossip sketched in Section 6, at several
  fanouts.

Reported per strategy: total messages, total bits, bits per round, and for
gossip the knowledge quality it buys (coverage and staleness error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import format_table
from repro.experiments.api import Experiment, ExperimentResult, ParamSpec, RowTable, columns_of
from repro.experiments.registry import register
from repro.classical.control_plane import FloodingControlPlane
from repro.classical.gossip import ChokeUnchokeGossip
from repro.core.maxmin.balancer import MaxMinBalancer
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.generation import DeterministicGeneration
from repro.network.topologies import topology_from_name, validate_topology_sizes
from repro.runtime.seeding import RandomStreams


@dataclass
class ClassicalOverheadRow:
    """Control-plane cost (and knowledge quality) of one dissemination strategy."""

    strategy: str
    rounds: int
    messages: int
    bits: int
    bits_per_round: float
    mean_coverage: float
    mean_staleness: float


@dataclass
class ClassicalOverheadResult(ExperimentResult):
    experiment = "classical"
    COLUMNS = columns_of(ClassicalOverheadRow)

    topology: str
    n_nodes: int
    rows: List[ClassicalOverheadRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Structured records stay attribute-accessible (result.rows);
        # calling the table yields the uniform contract's flat tuples.
        self.rows = RowTable(self.rows)

    def format_report(self) -> str:
        headers = ("strategy", "rounds", "messages", "bits", "bits/round", "coverage", "staleness")
        table_rows = [
            (
                row.strategy,
                row.rounds,
                row.messages,
                row.bits,
                row.bits_per_round,
                row.mean_coverage,
                row.mean_staleness,
            )
            for row in self.rows
        ]
        title = f"E6: classical control-plane overhead ({self.topology}, |N|={self.n_nodes})"
        return format_table(headers, table_rows, title=title)


def _account_overheads(
    topology_name: str,
    n_nodes: int,
    rounds: int,
    gossip_fanouts: Sequence[int],
    seed: int,
) -> Tuple[str, List[ClassicalOverheadRow]]:
    """Run the balancing workload and account each strategy's classical cost.

    Returns the built topology's display name plus one row per strategy.
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    streams = RandomStreams(seed)
    topology = topology_from_name(topology_name, n_nodes, rng=streams.get("topology"))
    generation = DeterministicGeneration(topology)

    # One shared balancing workload: generation feeds the ledger, the balancer
    # spreads pairs; the control planes observe the same evolving state.
    ledger = PairCountLedger(topology.nodes)
    balancer = MaxMinBalancer(ledger, overheads=1.0, rng=streams.get("balancer"), keep_records=False)
    flooding = FloodingControlPlane(topology, ledger)
    gossips = {
        fanout: ChokeUnchokeGossip(
            topology,
            ledger,
            unchoked_slots=fanout,
            rng=streams.get(f"gossip-{fanout}"),
        )
        for fanout in gossip_fanouts
    }

    for round_index in range(rounds):
        ledger.add_pairs(*generation.draw())
        balancer.run_round(round_index)
        flooding.run_round(round_index)
        for gossip in gossips.values():
            gossip.run_round(round_index)

    result_rows: List[ClassicalOverheadRow] = []
    summary = flooding.summary()
    result_rows.append(
        ClassicalOverheadRow(
            strategy="flooding",
            rounds=int(summary["rounds"]),
            messages=int(summary["messages"]),
            bits=int(summary["bits"]),
            bits_per_round=summary["bits_per_round"],
            mean_coverage=1.0,
            mean_staleness=0.0,
        )
    )
    for fanout, gossip in gossips.items():
        summary = gossip.summary()
        coverages = [gossip.coverage(node) for node in topology.nodes]
        staleness = [gossip.staleness_error(node) for node in topology.nodes]
        staleness = [value for value in staleness if value == value]  # drop NaNs
        result_rows.append(
            ClassicalOverheadRow(
                strategy=f"gossip-fanout{fanout}",
                rounds=int(summary["rounds"]),
                messages=int(summary["messages"]),
                bits=int(summary["bits"]),
                bits_per_round=summary["bits_per_round"],
                mean_coverage=float(np.mean(coverages)) if coverages else 0.0,
                mean_staleness=float(np.mean(staleness)) if staleness else 0.0,
            )
        )
    return topology.name, result_rows


@register
class ClassicalOverheadExperiment(Experiment):
    """The control-plane accounting as a registered experiment."""

    name = "classical"
    summary = "Classical control-plane cost: flooding vs choke/unchoke gossip on one workload (E6)."
    params = (
        ParamSpec("n_nodes", int, 25, "number of nodes |N|", flag="--nodes"),
        ParamSpec("topology_name", str, "random-grid", "topology family of the workload", cli=False),
        ParamSpec("rounds", int, 50, "balancing rounds to drive", cli=False),
        ParamSpec("gossip_fanouts", tuple, (2, 4), "gossip unchoke fanouts to account", cli=False),
        ParamSpec("seed", int, 11, "workload seed", cli=False),
    )

    def normalize(self, params):
        validate_topology_sizes((params["topology_name"],), (params["n_nodes"],))
        return params

    def build_grid(self, params) -> List[Dict]:
        # One unit: the whole workload is a single in-process run.
        names = ("topology_name", "n_nodes", "rounds", "gossip_fanouts", "seed")
        return [{name: params[name] for name in names}]

    def execute(self, grid, runtime) -> List[Tuple[str, List[ClassicalOverheadRow]]]:
        return self.execute_in_process(grid, runtime, _account_overheads)

    def reduce(self, outcomes, params) -> ClassicalOverheadResult:
        [(topology_label, rows)] = outcomes
        return ClassicalOverheadResult(
            topology=topology_label, n_nodes=params["n_nodes"], rows=rows
        )
