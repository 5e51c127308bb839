"""Large-topology balancing scaling experiment.

The paper evaluates max-min balancing on ~25-node networks; this experiment
pushes the balancing core to 200–1000-node Waxman, wraparound-grid and
Erdős–Rényi generation graphs — the regime the engine's ``incremental``
mode (:mod:`repro.core.maxmin.incremental`) exists for.

The workload models a provisioning imbalance: every generation edge starts
with a few Bell pairs and a small fraction of "hot" edges hold deep buffers
(freshly provisioned high-rate links).  Balancing must drain the hot edges
into the network, which exercises the long convergence tail where the
``naive`` mode evaluates every node's turn every round while only a handful
still have preferable swaps.

Each row reports the converged fixed point (rounds, swaps, residual
imbalance) and the wall-clock seconds per engine; running both engines on
the same cell doubles as an end-to-end equivalence check, since the fixed
points must be identical.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fairness import balanced_fixed_point, count_imbalance
from repro.analysis.reporting import format_table
from repro.core.maxmin.ledger import PairCountLedger
from repro.experiments.api import Experiment, ExperimentResult, ParamSpec, RowTable, columns_of
from repro.experiments.config import full_mode_enabled
from repro.experiments.registry import register
from repro.network.topologies import topology_from_name
from repro.network.topology import Topology
from repro.runtime.seeding import RandomStreams, seed_grid

#: The large-topology families this experiment sweeps.
SCALING_TOPOLOGIES: Tuple[str, ...] = ("waxman", "grid", "erdos-renyi")

#: Quick sweep (CI / benchmarks) and full sweep (REPRO_FULL=1) of |N|.
QUICK_SCALING_SIZES: Tuple[int, ...] = (200,)
FULL_SCALING_SIZES: Tuple[int, ...] = (200, 500, 1000)


@dataclass
class ScalingRow:
    """One (topology, |N|, engine) cell of the scaling sweep.

    ``n_nodes`` is the requested cell size (the sweep key); ``actual_nodes``
    is the built graph's size, which differs only for grids (snapped to the
    nearest perfect square).
    """

    topology: str
    n_nodes: int
    actual_nodes: int
    engine: str
    ledger_pairs_before: int
    imbalance_before: float
    imbalance_after: float
    rounds: int
    swaps: int
    seconds: float


@dataclass
class ScalingResult(ExperimentResult):
    """All scaling rows, with per-cell speedup accessors."""

    experiment = "scaling"
    COLUMNS = columns_of(ScalingRow)

    sizes: Tuple[int, ...]
    topologies: Tuple[str, ...]
    engines: Tuple[str, ...]
    rows: List[ScalingRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Structured records stay attribute-accessible (result.rows);
        # calling the table yields the uniform contract's flat tuples.
        self.rows = RowTable(self.rows)

    def row_for(self, topology: str, n_nodes: int, engine: str) -> Optional[ScalingRow]:
        for row in self.rows:
            if (row.topology, row.n_nodes, row.engine) == (topology, n_nodes, engine):
                return row
        return None

    def speedup(self, topology: str, n_nodes: int) -> Optional[float]:
        """``naive seconds / incremental seconds`` for one cell (None if absent)."""
        naive = self.row_for(topology, n_nodes, "naive")
        incremental = self.row_for(topology, n_nodes, "incremental")
        if naive is None or incremental is None or incremental.seconds == 0:
            return None
        return naive.seconds / incremental.seconds

    def format_report(self) -> str:
        headers = (
            "topology",
            "|N|",
            "engine",
            "pairs",
            "imbalance",
            "rounds",
            "swaps",
            "seconds",
        )
        table_rows = [
            (
                row.topology,
                row.actual_nodes,
                row.engine,
                row.ledger_pairs_before,
                f"{row.imbalance_before:g}->{row.imbalance_after:g}",
                row.rounds,
                row.swaps,
                f"{row.seconds:.3f}",
            )
            for row in self.rows
        ]
        lines = [format_table(headers, table_rows, title="Scaling: balancing on large topologies")]
        for topology in self.topologies:
            for size in self.sizes:
                ratio = self.speedup(topology, size)
                if ratio is not None:
                    lines.append(f"  {topology} |N|={size}: incremental speedup {ratio:.1f}x")
        return "\n".join(lines)


def scaling_topology(
    name: str, n_nodes: int, streams: RandomStreams
) -> Topology:
    """Build one large generation graph, keeping the mean degree sane.

    The registry defaults are tuned for paper-scale (~25 node) networks and
    become very dense at |N| >= 200 (Waxman's default alpha/beta give mean
    degree ~90 at 500 nodes); this picks sparser parameters so balancing
    cost reflects topology size rather than accidental density.  Grid sizes
    are snapped to the nearest perfect square.
    """
    rng = streams.get("topology")
    if name == "grid":
        side = max(2, int(round(math.sqrt(n_nodes))))
        return topology_from_name(name, side * side, rng=rng)
    if name == "waxman":
        # With beta=0.3 the mean edge probability is ~0.29*alpha on the unit
        # square; pick alpha for a mean degree of ~10 regardless of |N|
        # (well above the ~ln|N| connectivity threshold up to 1000 nodes).
        alpha = min(0.6, 10.0 / (0.29 * n_nodes))
        return topology_from_name(name, n_nodes, rng=rng, alpha=alpha, beta=0.3)
    if name == "erdos-renyi":
        probability = min(0.3, max(10.0 / n_nodes, 1.5 * math.log(n_nodes) / n_nodes))
        return topology_from_name(name, n_nodes, rng=rng, edge_probability=probability)
    return topology_from_name(name, n_nodes, rng=rng)


def build_scaling_ledger(
    topology: str,
    n_nodes: int,
    seed: int = 1,
    base_pairs: int = 4,
    hot_fraction: float = 0.02,
    hot_depth: int = 300,
) -> Tuple[Topology, PairCountLedger]:
    """The provisioning-imbalance workload behind one scaling cell.

    Every generation edge receives 1..``base_pairs`` pairs; a
    ``hot_fraction`` of edges additionally receive ``hot_depth`` pairs.
    Deterministic in ``seed`` (named RNG streams, like every trial).
    """
    streams = RandomStreams(seed)
    graph = scaling_topology(topology, n_nodes, streams)
    rng = streams.get("scaling-counts")
    ledger = PairCountLedger(graph.nodes)
    edges = graph.edges()
    for edge in edges:
        ledger.add(edge[0], edge[1], int(rng.integers(1, base_pairs + 1)))
    n_hot = max(1, int(len(edges) * hot_fraction))
    for index in rng.choice(len(edges), size=n_hot, replace=False):
        edge = edges[int(index)]
        ledger.add(edge[0], edge[1], hot_depth)
    return graph, ledger


def _run_scaling_cell(
    topology: str,
    size: int,
    engines: Sequence[str],
    seed: int,
    distillation: float,
    max_rounds: int,
    base_pairs: int,
    hot_fraction: float,
    hot_depth: int,
) -> List[ScalingRow]:
    """Balance one (topology, |N|) cell with every engine and cross-check.

    Every engine balances an identical copy of the cell's seeded ledger;
    when more than one engine runs, the fixed points are asserted identical
    (the incremental engine's contract) before the rows are returned.
    """
    graph, seeded = build_scaling_ledger(
        topology,
        size,
        seed=seed,
        base_pairs=base_pairs,
        hot_fraction=hot_fraction,
        hot_depth=hot_depth,
    )
    imbalance_before = count_imbalance(seeded)
    pairs_before = seeded.total_pairs()
    fixed_points: Dict[str, Dict] = {}
    rows: List[ScalingRow] = []
    for engine in engines:
        start = time.perf_counter()
        converged, balancer, rounds = balanced_fixed_point(
            seeded,
            overheads=distillation,
            engine=engine,
            max_rounds=max_rounds,
            seed=seed,
        )
        elapsed = time.perf_counter() - start
        fixed_points[engine] = converged.nonzero_pairs()
        rows.append(
            ScalingRow(
                topology=topology,
                n_nodes=size,
                actual_nodes=graph.n_nodes,
                engine=engine,
                ledger_pairs_before=pairs_before,
                imbalance_before=imbalance_before,
                imbalance_after=count_imbalance(converged),
                rounds=rounds,
                swaps=balancer.swaps_performed,
                seconds=elapsed,
            )
        )
    if len(fixed_points) > 1:
        reference = fixed_points[engines[0]]
        for engine, pairs in fixed_points.items():
            if pairs != reference:
                raise RuntimeError(
                    f"balancer engines disagree on ({topology}, |N|={size}): "
                    f"{engines[0]} vs {engine}"
                )
    return rows


@register
class ScalingExperiment(Experiment):
    """The large-topology balancing sweep as a registered experiment."""

    name = "scaling"
    summary = "Max-min balancing on 200-1000-node topologies: naive vs incremental engine speedup."
    params = (
        ParamSpec(
            "sizes",
            int,
            None,
            "network sizes |N| to sweep (default: quick/full preset)",
            nargs="*",
        ),
        ParamSpec(
            "balancer",
            str,
            None,
            "run only this balancing engine (default: both, which also cross-checks fixed points)",
            choices=("naive", "incremental"),
        ),
        ParamSpec(
            "master_seed",
            int,
            None,
            "derive the workload seed from this master seed (SHA-256, never used verbatim)",
            flag="--master-seed",
            metavar="SEED",
        ),
        ParamSpec("topologies", tuple, SCALING_TOPOLOGIES, "topology families to sweep", cli=False),
        ParamSpec("seed", int, 1, "workload seed", cli=False),
        ParamSpec("distillation", float, 1.0, "distillation overhead D", cli=False),
        ParamSpec("max_rounds", int, 200_000, "safety cap on balancing rounds", cli=False),
        ParamSpec("base_pairs", int, 4, "max pairs seeded on every generation edge", cli=False),
        ParamSpec("hot_fraction", float, 0.02, "fraction of edges given deep buffers", cli=False),
        ParamSpec("hot_depth", int, 300, "pair depth of the hot edges", cli=False),
    )

    def normalize(self, params):
        balancer = params["balancer"]
        params["engines"] = (balancer,) if balancer else ("naive", "incremental")
        if params["master_seed"] is not None:
            params["seed"] = seed_grid(params["master_seed"], 1)[0]
        sizes = params["sizes"]
        if not sizes:  # None or a bare --sizes: use the preset
            sizes = FULL_SCALING_SIZES if full_mode_enabled() else QUICK_SCALING_SIZES
        params["sizes"] = tuple(int(size) for size in sizes)
        too_small = [size for size in params["sizes"] if size < 3]
        if too_small:
            raise ValueError(f"sizes must be at least 3 nodes, got {too_small}")
        return params

    def build_grid(self, params) -> List[Dict]:
        return [
            dict(
                topology=topology,
                size=size,
                engines=params["engines"],
                seed=params["seed"],
                distillation=params["distillation"],
                max_rounds=params["max_rounds"],
                base_pairs=params["base_pairs"],
                hot_fraction=params["hot_fraction"],
                hot_depth=params["hot_depth"],
            )
            for topology in params["topologies"]
            for size in params["sizes"]
        ]

    def execute(self, grid, runtime) -> List[List[ScalingRow]]:
        # Wall-clock per engine is the measurement, so cells run in-process
        # and sequentially (a process pool would skew the timings).
        return self.execute_in_process(grid, runtime, _run_scaling_cell)

    def reduce(self, outcomes: List[List[ScalingRow]], params) -> ScalingResult:
        result = ScalingResult(
            sizes=params["sizes"],
            topologies=tuple(params["topologies"]),
            engines=params["engines"],
        )
        for cell_rows in outcomes:
            result.rows.extend(cell_rows)
        return result
