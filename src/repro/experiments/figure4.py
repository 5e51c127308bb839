"""Figure 4: swap overhead as the distillation overhead ``D`` varies.

Paper setting: ``|N| = 25``, three generation-graph families (cycle, random
connected wraparound grid, full wraparound grid), 35 consumer pairs, unit
generation rates, ordered consumption requests; the y axis is the swap
overhead of the max-min balancing protocol.
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
from repro.experiments.registry import register
from repro.network.topologies import validate_topology_sizes

#: The topology families plotted in the figure.
FIGURE4_TOPOLOGIES: Tuple[str, ...] = ("cycle", "random-grid", "grid")

#: Quick sweep used by CI / the benchmark suite.
QUICK_DISTILLATION_VALUES: Tuple[float, ...] = (1.0, 2.0, 3.0)
#: Full sweep (REPRO_FULL=1).
FULL_DISTILLATION_VALUES: Tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)


@dataclass
class Figure4Result(ExperimentResult):
    """Swap overhead per (topology, D), with the per-trial outcomes retained."""

    experiment = "figure4"
    COLUMNS = ("topology", "distillation", "overhead_exact", "overhead_paper")

    n_nodes: int
    distillation_values: Tuple[float, ...]
    topologies: Tuple[str, ...]
    outcomes: List[TrialOutcome] = field(default_factory=list)

    def series(self, variant: str = "exact") -> Dict[str, Dict[float, float]]:
        """``topology -> {D -> mean overhead}`` (the figure's lines)."""
        table: Dict[str, Dict[float, List[float]]] = {name: {} for name in self.topologies}
        for outcome in self.outcomes:
            value = outcome.overhead_exact if variant == "exact" else outcome.overhead_paper
            table[outcome.config.topology].setdefault(outcome.config.distillation, []).append(value)
        return {
            name: {
                d: float(np.mean(np.asarray(values, dtype=float))) for d, values in points.items()
            }
            for name, points in table.items()
        }

    def rows(self) -> List[Tuple]:
        """One row per (topology, D): mean overhead under both denominators."""
        rows: List[Tuple] = []
        exact = self.series("exact")
        paper = self.series("paper")
        for topology in self.topologies:
            for distillation in self.distillation_values:
                if distillation in exact.get(topology, {}):
                    rows.append(
                        (
                            topology,
                            distillation,
                            exact[topology][distillation],
                            paper[topology][distillation],
                        )
                    )
        return rows

    def format_report(self) -> str:
        series = self.series("exact")
        return render_series(
            "D",
            series,
            title=f"Figure 4: swap overhead vs distillation overhead (|N|={self.n_nodes})",
        )


def figure4_configs(
    n_nodes: int = 25,
    distillation_values: Optional[Sequence[float]] = None,
    topologies: Sequence[str] = FIGURE4_TOPOLOGIES,
    seeds: Sequence[int] = (1,),
    n_requests: int = 50,
    n_consumer_pairs: int = 35,
    balancer: str = "naive",
) -> List[ExperimentConfig]:
    """The config grid behind Figure 4."""
    if distillation_values is None:
        distillation_values = (
            FULL_DISTILLATION_VALUES if full_mode_enabled() else QUICK_DISTILLATION_VALUES
        )
    configs: List[ExperimentConfig] = []
    for topology in topologies:
        for distillation in distillation_values:
            for seed in seeds:
                configs.append(
                    ExperimentConfig(
                        topology=topology,
                        n_nodes=n_nodes,
                        distillation=float(distillation),
                        n_consumer_pairs=n_consumer_pairs,
                        n_requests=n_requests,
                        seed=seed,
                        balancer=balancer,
                    )
                )
    return configs


@register
class Figure4Experiment(Experiment):
    """Figure 4 as a registered experiment (sweep over ``D``)."""

    name = "figure4"
    summary = "Swap overhead vs distillation overhead D on the paper's three topologies (Figure 4)."
    params = (
        ParamSpec("n_nodes", int, 25, "number of nodes |N|", flag="--nodes"),
        ParamSpec(
            "distillation_values",
            float,
            None,
            "distillation overhead values D to sweep (default: quick/full preset)",
            flag="--distillation",
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
        ParamSpec("n_consumer_pairs", int, 35, "consumer pairs drawn per trial", cli=False),
        ParamSpec("topologies", tuple, FIGURE4_TOPOLOGIES, "topology families to sweep", cli=False),
        ParamSpec(
            "smoke",
            bool,
            False,
            "shrink to the CI smoke point (9 nodes, 6 requests, D=1) -- the "
            "standard quick probe for serve and CI pipelines",
            is_flag=True,
        ),
    )
    smoke_preset = {"n_nodes": 9, "n_requests": 6, "distillation_values": (1.0,)}

    def normalize(self, params):
        self.apply_smoke(params)
        params["seeds"] = resolve_trial_seeds(params["seeds"], params["master_seed"])
        if not params["distillation_values"]:
            params["distillation_values"] = None  # bare --distillation means "use the preset"
        validate_topology_sizes(params["topologies"], (params["n_nodes"],))
        return params

    def build_grid(self, params) -> List[ExperimentConfig]:
        return figure4_configs(
            n_nodes=params["n_nodes"],
            distillation_values=params["distillation_values"],
            topologies=params["topologies"],
            seeds=params["seeds"],
            n_requests=params["n_requests"],
            n_consumer_pairs=params["n_consumer_pairs"],
            balancer=params["balancer"],
        )

    def reduce(self, outcomes: List[TrialOutcome], params) -> Figure4Result:
        distillations = tuple(sorted({outcome.config.distillation for outcome in outcomes}))
        return Figure4Result(
            n_nodes=params["n_nodes"],
            distillation_values=distillations,
            topologies=tuple(params["topologies"]),
            outcomes=outcomes,
        )
