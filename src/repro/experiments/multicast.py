"""Multicast experiment: shared fusion vs independent sessions over group sizes.

The group-keyed core serves a k-party GHZ request by spending Bell-pair
*sessions* chosen by a strategy (:mod:`repro.protocols.fusion`): ``shared``
builds a star of ``k - 1`` hub pairs merged by ``k - 2`` fusions, while
``independent-sessions`` runs all ``k(k-1)/2`` member pairs.  This
experiment asks the capacity question directly: for group sizes 2-5, how do
the two strategies compare on throughput (satisfied requests per round),
consumption fairness (Jain's index over per-group-key served counts), swap
and fusion cost, and tail latency?

Each cell runs the path-oblivious protocol against a ``multicast`` workload
spec (Poisson arrivals, half the arrivals targeting GHZ groups of the
cell's size, served with the cell's strategy).  Group size 2 is the built-in
sanity row: both strategies degenerate to single Bell-pair sessions there,
so their numbers must coincide.

``--smoke`` shrinks the sweep to one small group-size-3 cell per strategy
(the CI gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.analysis.fairness import jains_index
from repro.analysis.reporting import format_table
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ParamSpec,
    RowTable,
    SmokeCap,
    columns_of,
)
from repro.experiments.config import ExperimentConfig, TrialOutcome
from repro.experiments.registry import register
from repro.network.topologies import validate_topology_sizes
from repro.protocols.fusion import GROUP_STRATEGIES, validate_strategy
from repro.workloads.registry import validate_workload_spec
from repro.workloads.slo import TOTAL_KEY

#: Group sizes the default sweep compares (2 is the pair sanity row).
DEFAULT_GROUP_SIZES: Tuple[int, ...] = (2, 3, 4, 5)

#: Fraction of arrivals that target a GHZ group in each cell.
DEFAULT_GROUP_FRACTION = 0.5


@dataclass
class MulticastRow:
    """One (group size, strategy) cell of the multicast comparison."""

    group_size: int
    strategy: str
    workload: str
    arrivals: int
    satisfied: int
    rounds: int
    throughput: float
    swaps: int
    fusions: int
    pairs_consumed: int
    jain_fairness: float
    p95_latency: float
    effective_groups: int


@dataclass
class MulticastResult(ExperimentResult):
    """Shared-vs-independent strategy comparison over group sizes."""

    experiment = "multicast"
    COLUMNS = columns_of(MulticastRow)

    group_sizes: Tuple[int, ...]
    strategies: Tuple[str, ...]
    seed: int
    rows: List[MulticastRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rows = RowTable(self.rows)

    def rows_for_strategy(self, strategy: str) -> List[MulticastRow]:
        return [row for row in self.rows if row.strategy == strategy]

    def format_report(self) -> str:
        headers = (
            "size",
            "strategy",
            "arrived",
            "served",
            "rounds",
            "throughput",
            "swaps",
            "fusions",
            "pairs",
            "fairness",
            "p95",
        )
        table_rows = [
            (
                row.group_size,
                row.strategy,
                row.arrivals,
                row.satisfied,
                row.rounds,
                f"{row.throughput:.4f}",
                row.swaps,
                row.fusions,
                row.pairs_consumed,
                f"{row.jain_fairness:.3f}",
                f"{row.p95_latency:.1f}",
            )
            for row in self.rows
        ]
        lines = [
            format_table(
                headers,
                table_rows,
                title="Multicast: shared fusion vs independent sessions",
            )
        ]
        for size in self.group_sizes:
            cells = {
                row.strategy: row for row in self.rows if row.group_size == size
            }
            if len(cells) < 2:
                continue
            shared = cells.get("shared")
            independent = cells.get("independent-sessions")
            if shared is None or independent is None:
                continue
            if independent.throughput > 0:
                gain = shared.throughput / independent.throughput
                lines.append(
                    f"  size {size}: shared serves {gain:.2f}x the throughput of "
                    f"independent sessions ({shared.fusions} fusions vs 0)"
                )
        return "\n".join(lines)


@register
class MulticastExperiment(Experiment):
    """The GHZ group-serving strategy comparison as a registered experiment."""

    name = "multicast"
    summary = (
        "Shared (star-of-pairs + fusion) vs independent-sessions GHZ serving "
        "over group sizes 2-5: throughput, fairness, swap and fusion cost."
    )
    params = (
        ParamSpec("topology", str, "cycle", "topology family of every cell"),
        ParamSpec("n_nodes", int, 16, "number of nodes |N|", flag="--nodes"),
        ParamSpec(
            "n_requests",
            int,
            40,
            "arrival budget per cell (the trace is truncated to this many requests)",
            flag="--requests",
        ),
        ParamSpec(
            "group_fraction",
            float,
            DEFAULT_GROUP_FRACTION,
            "fraction of arrivals that target a GHZ group instead of a pair",
        ),
        ParamSpec("rate", float, 2.0, "Poisson arrival rate (requests per round)"),
        ParamSpec(
            "smoke",
            bool,
            False,
            "shrink the sweep to one small group-size-3 cell per strategy (CI gate)",
            is_flag=True,
        ),
        ParamSpec("group_sizes", tuple, DEFAULT_GROUP_SIZES, "group sizes to sweep", cli=False),
        ParamSpec("strategies", tuple, GROUP_STRATEGIES, "group strategies to compare", cli=False),
        ParamSpec("n_consumer_pairs", int, 10, "consumer pairs/groups drawn per trial", cli=False),
        ParamSpec("seed", int, 1, "workload seed", cli=False),
        ParamSpec("max_rounds", int, 20_000, "safety cap on simulated rounds", cli=False),
    )
    smoke_preset = {
        "group_sizes": (3,),
        "n_nodes": SmokeCap(9),
        "n_requests": SmokeCap(12),
        "n_consumer_pairs": SmokeCap(6),
        "max_rounds": SmokeCap(3000),
    }

    def normalize(self, params):
        sizes = tuple(int(size) for size in params["group_sizes"])
        if any(size < 2 for size in sizes):
            raise ValueError(f"group sizes must all be >= 2, got {sizes}")
        params["group_sizes"] = sizes
        params["strategies"] = tuple(
            validate_strategy(strategy) for strategy in params["strategies"]
        )
        if not 0.0 <= float(params["group_fraction"]) <= 1.0:
            raise ValueError(
                f"group_fraction must be within [0, 1], got {params['group_fraction']}"
            )
        self.apply_smoke(params)
        validate_topology_sizes((params["topology"],), (params["n_nodes"],))
        return params

    def _spec_for(self, params, size: int, strategy: str) -> str:
        spec = (
            f"multicast:rate={float(params['rate']):g}"
            f",group_fraction={float(params['group_fraction']):g}"
            f",group_size={size},group_strategy={strategy}"
        )
        return validate_workload_spec(spec)

    def build_grid(self, params) -> List[ExperimentConfig]:
        return [
            ExperimentConfig(
                topology=params["topology"],
                n_nodes=params["n_nodes"],
                n_consumer_pairs=params["n_consumer_pairs"],
                n_requests=params["n_requests"],
                seed=params["seed"],
                protocol="path-oblivious",
                workload=self._spec_for(params, size, strategy),
                max_rounds=params["max_rounds"],
            )
            for size in params["group_sizes"]
            for strategy in params["strategies"]
        ]

    def reduce(self, outcomes: List[TrialOutcome], params) -> MulticastResult:
        result = MulticastResult(
            group_sizes=params["group_sizes"],
            strategies=params["strategies"],
            seed=params["seed"],
        )
        cells = [
            (size, strategy)
            for size in params["group_sizes"]
            for strategy in params["strategies"]
        ]
        for (size, strategy), outcome in zip(cells, outcomes):
            total = outcome.slo.get(TOTAL_KEY, {})
            served_counts = list(outcome.consumption_by_pair.values())
            result.rows.append(
                MulticastRow(
                    group_size=size,
                    strategy=strategy,
                    workload=outcome.config.workload,
                    arrivals=outcome.requests_total,
                    satisfied=outcome.requests_satisfied,
                    rounds=outcome.rounds,
                    throughput=(
                        outcome.requests_satisfied / outcome.rounds
                        if outcome.rounds
                        else 0.0
                    ),
                    swaps=outcome.swaps_performed,
                    fusions=outcome.fusions_performed,
                    pairs_consumed=outcome.pairs_consumed,
                    jain_fairness=jains_index(served_counts) if served_counts else 0.0,
                    p95_latency=float(total.get("p95_latency", float("nan"))),
                    effective_groups=int(outcome.effective_consumer_groups or 0),
                )
            )
        return result
