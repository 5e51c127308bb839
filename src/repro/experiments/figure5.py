"""Figure 5: swap overhead as the network size ``|N|`` varies.

Paper setting: ``D = 1``, the same three topology families as Figure 4, and
the swap overhead of the max-min balancing protocol on the y axis.  Network
sizes are perfect squares so the grid topologies are defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.reporting import render_series
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ParamSpec,
    resolve_trial_seeds,
)
from repro.experiments.config import ExperimentConfig, TrialOutcome, full_mode_enabled
from repro.experiments.figure4 import FIGURE4_TOPOLOGIES
from repro.experiments.registry import register
from repro.network.topologies import validate_topology_sizes

#: Quick sweep (CI / benchmarks) and full sweep (REPRO_FULL=1) of |N|.
QUICK_NETWORK_SIZES: Tuple[int, ...] = (9, 16, 25)
FULL_NETWORK_SIZES: Tuple[int, ...] = (9, 16, 25, 36, 49)


@dataclass
class Figure5Result(ExperimentResult):
    """Swap overhead per (topology, |N|)."""

    experiment = "figure5"
    COLUMNS = ("topology", "n_nodes", "overhead_exact", "overhead_paper")

    distillation: float
    network_sizes: Tuple[int, ...]
    topologies: Tuple[str, ...]
    outcomes: List[TrialOutcome] = field(default_factory=list)

    def series(self, variant: str = "exact") -> Dict[str, Dict[int, float]]:
        """``topology -> {|N| -> mean overhead}``."""
        table: Dict[str, Dict[int, List[float]]] = {name: {} for name in self.topologies}
        for outcome in self.outcomes:
            value = outcome.overhead_exact if variant == "exact" else outcome.overhead_paper
            table[outcome.config.topology].setdefault(outcome.config.n_nodes, []).append(value)
        return {
            name: {
                n: float(np.mean(np.asarray(values, dtype=float))) for n, values in points.items()
            }
            for name, points in table.items()
        }

    def rows(self) -> List[Tuple]:
        rows: List[Tuple] = []
        exact = self.series("exact")
        paper = self.series("paper")
        for topology in self.topologies:
            for size in self.network_sizes:
                if size in exact.get(topology, {}):
                    rows.append((topology, size, exact[topology][size], paper[topology][size]))
        return rows

    def format_report(self) -> str:
        return render_series(
            "|N|",
            self.series("exact"),
            title=f"Figure 5: swap overhead vs network size (D={self.distillation:g})",
        )


def figure5_configs(
    distillation: float = 1.0,
    network_sizes: Optional[Sequence[int]] = None,
    topologies: Sequence[str] = FIGURE4_TOPOLOGIES,
    seeds: Sequence[int] = (1,),
    n_requests: int = 50,
    n_consumer_pairs: int = 35,
    balancer: str = "naive",
) -> List[ExperimentConfig]:
    """The config grid behind Figure 5."""
    if network_sizes is None:
        network_sizes = FULL_NETWORK_SIZES if full_mode_enabled() else QUICK_NETWORK_SIZES
    configs: List[ExperimentConfig] = []
    for topology in topologies:
        for n_nodes in network_sizes:
            for seed in seeds:
                configs.append(
                    ExperimentConfig(
                        topology=topology,
                        n_nodes=int(n_nodes),
                        distillation=float(distillation),
                        n_consumer_pairs=n_consumer_pairs,
                        n_requests=n_requests,
                        seed=seed,
                        balancer=balancer,
                    )
                )
    return configs


@register
class Figure5Experiment(Experiment):
    """Figure 5 as a registered experiment (sweep over ``|N|``)."""

    name = "figure5"
    summary = "Swap overhead vs network size |N| at D=1 on the paper's three topologies (Figure 5)."
    params = (
        ParamSpec(
            "network_sizes",
            int,
            None,
            "network sizes |N| to sweep (default: quick/full preset)",
            flag="--sizes",
            nargs="*",
        ),
        ParamSpec(
            "seeds",
            int,
            1,
            "number of seeded trials per point (programmatically: explicit seed sequence)",
        ),
        ParamSpec(
            "master_seed",
            int,
            None,
            "derive the per-point trial seeds from this master seed (default: use seeds 1..N)",
            flag="--master-seed",
            metavar="SEED",
        ),
        ParamSpec("n_requests", int, 50, "length of the consumption request sequence", flag="--requests"),
        ParamSpec(
            "balancer",
            str,
            "naive",
            "balancing engine mode: every turn 'naive' or idle-skipping 'incremental' (identical results)",
            choices=("naive", "incremental"),
        ),
        ParamSpec("distillation", float, 1.0, "distillation overhead D", cli=False),
        ParamSpec("n_consumer_pairs", int, 35, "consumer pairs drawn per trial", cli=False),
        ParamSpec("topologies", tuple, FIGURE4_TOPOLOGIES, "topology families to sweep", cli=False),
    )

    def normalize(self, params):
        params["seeds"] = resolve_trial_seeds(params["seeds"], params["master_seed"])
        if not params["network_sizes"]:
            params["network_sizes"] = None  # bare --sizes means "use the preset"
        else:
            validate_topology_sizes(params["topologies"], params["network_sizes"])
        return params

    def build_grid(self, params) -> List[ExperimentConfig]:
        return figure5_configs(
            distillation=params["distillation"],
            network_sizes=params["network_sizes"],
            topologies=params["topologies"],
            seeds=params["seeds"],
            n_requests=params["n_requests"],
            n_consumer_pairs=params["n_consumer_pairs"],
            balancer=params["balancer"],
        )

    def reduce(self, outcomes: List[TrialOutcome], params) -> Figure5Result:
        sizes = tuple(sorted({outcome.config.n_nodes for outcome in outcomes}))
        return Figure5Result(
            distillation=params["distillation"],
            network_sizes=sizes,
            topologies=tuple(params["topologies"]),
            outcomes=outcomes,
        )
