"""Resilience experiment: balancing under fault-and-churn scenarios.

The paper's evaluation is static; this experiment asks what happens to
path-oblivious balancing when the network misbehaves.  Each cell runs the
same seeded workload twice -- once undisturbed and once under a dynamic
scenario (:mod:`repro.scenarios`) -- and with *both* balancing engines, so
every row doubles as an end-to-end check that the incremental mode's
idle-node skipping reaches the identical fixed points under failures.

Reported per cell:

* **recovery ratio** -- completion rounds under churn over completion
  rounds of the static baseline (how much the disturbance cost),
* **fairness under churn** -- Jain's index over per-consumer-pair service,
  zero-filled for starved pairs,
* satisfaction, swap and waiting-time counts from the underlying
  :class:`~repro.experiments.config.TrialOutcome` rows.

``smoke=True`` shrinks the sweep to one small cell; the CI workflow runs
``repro resilience --smoke`` as an end-to-end churn gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.fairness import jains_index
from repro.analysis.reporting import format_table
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ParamSpec,
    RowTable,
    SmokeCap,
    columns_of,
    resolve_trial_seeds,
)
from repro.experiments.config import ExperimentConfig, TrialOutcome, full_mode_enabled
from repro.experiments.registry import register
from repro.network.topologies import validate_topology_sizes
from repro.scenarios.registry import NO_SCENARIO, SCENARIO_NAMES, validate_scenario_spec

#: Default churn scenario when the caller does not pick one.
DEFAULT_RESILIENCE_SCENARIO = "link-churn"

#: Quick sweep (CI) and full sweep (REPRO_FULL=1) of |N|.
QUICK_RESILIENCE_SIZES: Tuple[int, ...] = (25, 50)
FULL_RESILIENCE_SIZES: Tuple[int, ...] = (25, 100, 250, 500)

#: The single cell the --smoke gate runs.
SMOKE_SIZES: Tuple[int, ...] = (25,)


@dataclass
class ResilienceRow:
    """One (|N|, scenario, balancer, seed) cell."""

    n_nodes: int
    scenario: str
    balancer: str
    seed: int
    rounds: int
    requests_satisfied: int
    requests_total: int
    swaps: int
    mean_waiting_rounds: float
    fairness: float

    @property
    def satisfied_fraction(self) -> float:
        if self.requests_total == 0:
            return 1.0
        return self.requests_satisfied / self.requests_total


@dataclass
class ResilienceResult(ExperimentResult):
    """All resilience rows plus the churn-vs-static accessors."""

    experiment = "resilience"
    COLUMNS = columns_of(ResilienceRow)

    scenario: str
    sizes: Tuple[int, ...]
    balancers: Tuple[str, ...]
    seeds: Tuple[int, ...]
    rows: List[ResilienceRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Structured records stay attribute-accessible (result.rows);
        # calling the table yields the uniform contract's flat tuples.
        self.rows = RowTable(self.rows)

    def row_for(
        self, n_nodes: int, scenario: str, balancer: str, seed: int
    ) -> Optional[ResilienceRow]:
        for row in self.rows:
            if (row.n_nodes, row.scenario, row.balancer, row.seed) == (
                n_nodes,
                scenario,
                balancer,
                seed,
            ):
                return row
        return None

    def recovery_ratio(self, n_nodes: int, balancer: str, seed: int) -> Optional[float]:
        """Completion rounds under churn / static baseline rounds for one cell."""
        static = self.row_for(n_nodes, NO_SCENARIO, balancer, seed)
        churned = self.row_for(n_nodes, self.scenario, balancer, seed)
        if static is None or churned is None or static.rounds == 0:
            return None
        return churned.rounds / static.rounds

    def format_report(self) -> str:
        headers = (
            "|N|",
            "scenario",
            "balancer",
            "seed",
            "rounds",
            "satisfied",
            "swaps",
            "wait",
            "fairness",
        )
        table_rows = [
            (
                row.n_nodes,
                row.scenario,
                row.balancer,
                row.seed,
                row.rounds,
                f"{row.requests_satisfied}/{row.requests_total}",
                row.swaps,
                f"{row.mean_waiting_rounds:.1f}",
                f"{row.fairness:.3f}",
            )
            for row in self.rows
        ]
        lines = [
            format_table(
                headers, table_rows, title=f"Resilience under scenario '{self.scenario}'"
            )
        ]
        for size in self.sizes:
            for seed in self.seeds:
                ratio = self.recovery_ratio(size, self.balancers[0], seed)
                if ratio is not None:
                    lines.append(
                        f"  |N|={size} seed={seed}: churn cost {ratio:.2f}x the "
                        "static completion rounds"
                    )
        return "\n".join(lines)


def _fairness(outcome: TrialOutcome) -> float:
    """Jain's index over per-consumer-pair service, zero-filling starved pairs."""
    served = list(outcome.consumption_by_pair.values())
    starved = outcome.config.n_consumer_pairs - len(served)
    values = served + [0] * max(starved, 0)
    if not values:
        return 1.0
    return jains_index(values)


def _scenario_spec(value: str) -> str:
    """argparse type: validate a scenario spec string, keeping it verbatim."""
    return validate_scenario_spec(value)


@register
class ResilienceExperiment(Experiment):
    """The fault-and-churn sweep as a registered experiment.

    When several balancer engines are requested, each (size, scenario, seed)
    cell is asserted to produce identical rounds, swap counts and
    per-consumer service across engines -- the incremental engine's
    bit-identical-under-failures contract, checked end to end.
    """

    name = "resilience"
    summary = "Recovery time and fairness under fault-and-churn scenarios vs the static baseline."
    params = (
        ParamSpec(
            "sizes",
            int,
            None,
            "network sizes |N| to sweep (default: quick/full preset)",
            nargs="*",
        ),
        ParamSpec(
            "scenario",
            _scenario_spec,
            DEFAULT_RESILIENCE_SCENARIO,
            "dynamic scenario, as 'name' or 'name:key=value,...' (names: "
            + ", ".join(name for name in SCENARIO_NAMES if name != "none")
            + ")",
            metavar="SPEC",
        ),
        ParamSpec(
            "seeds",
            int,
            1,
            "number of seeded trials per cell (programmatically: explicit seed sequence)",
        ),
        ParamSpec(
            "master_seed",
            int,
            None,
            "derive the per-cell trial seeds from this master seed (default: use seeds 1..N)",
            flag="--master-seed",
            metavar="SEED",
        ),
        ParamSpec("n_requests", int, 50, "length of the consumption request sequence", flag="--requests"),
        ParamSpec("topology", str, "cycle", "topology family of the workload"),
        ParamSpec(
            "balancer",
            str,
            None,
            "run only this balancing engine (default: both, which also cross-checks each cell)",
            choices=("naive", "incremental"),
        ),
        ParamSpec(
            "smoke",
            bool,
            False,
            "shrink the sweep to one small fast cell (CI gate)",
            is_flag=True,
        ),
        ParamSpec("max_rounds", int, 20_000, "safety cap on simulated rounds", cli=False),
    )
    smoke_preset = {
        "sizes": SMOKE_SIZES,
        "seeds": SmokeCap(1),
        "n_requests": SmokeCap(20),
        "max_rounds": SmokeCap(3000),
    }

    def normalize(self, params):
        scenario = validate_scenario_spec(params["scenario"])
        if scenario == NO_SCENARIO:
            raise ValueError("the resilience experiment needs a real scenario, not 'none'")
        params["scenario"] = scenario
        balancer = params["balancer"]
        params["balancers"] = (balancer,) if balancer else ("naive", "incremental")
        self.apply_smoke(params)
        seeds = resolve_trial_seeds(params["seeds"], params["master_seed"])
        sizes = params["sizes"]
        if not sizes:  # None or a bare --sizes: use the preset
            sizes = FULL_RESILIENCE_SIZES if full_mode_enabled() else QUICK_RESILIENCE_SIZES
        params["sizes"] = tuple(int(size) for size in sizes)
        params["seeds"] = tuple(int(seed) for seed in seeds)
        validate_topology_sizes((params["topology"],), params["sizes"])
        return params

    def build_grid(self, params) -> List[ExperimentConfig]:
        return [
            ExperimentConfig(
                topology=params["topology"],
                n_nodes=size,
                n_requests=params["n_requests"],
                seed=seed,
                balancer=balancer,
                scenario=spec,
                max_rounds=params["max_rounds"],
            )
            for size in params["sizes"]
            for spec in (NO_SCENARIO, params["scenario"])
            for balancer in params["balancers"]
            for seed in params["seeds"]
        ]

    def reduce(self, outcomes: List[TrialOutcome], params) -> ResilienceResult:
        result = ResilienceResult(
            scenario=params["scenario"],
            sizes=params["sizes"],
            balancers=params["balancers"],
            seeds=params["seeds"],
        )
        by_cell: Dict[Tuple[int, str, int], List[TrialOutcome]] = {}
        for outcome in outcomes:
            config = outcome.config
            result.rows.append(
                ResilienceRow(
                    n_nodes=config.n_nodes,
                    scenario=config.scenario,
                    balancer=config.balancer,
                    seed=config.seed,
                    rounds=outcome.rounds,
                    requests_satisfied=outcome.requests_satisfied,
                    requests_total=outcome.requests_total,
                    swaps=outcome.swaps_performed,
                    mean_waiting_rounds=outcome.mean_waiting_rounds,
                    fairness=_fairness(outcome),
                )
            )
            by_cell.setdefault((config.n_nodes, config.scenario, config.seed), []).append(outcome)

        for (size, spec, seed), cell in by_cell.items():
            reference = cell[0]
            for other in cell[1:]:
                if (
                    other.rounds != reference.rounds
                    or other.swaps_performed != reference.swaps_performed
                    or other.consumption_by_pair != reference.consumption_by_pair
                ):
                    raise RuntimeError(
                        f"balancer engines disagree under scenario {spec!r} "
                        f"(|N|={size}, seed={seed}): {reference.config.balancer} vs "
                        f"{other.config.balancer}"
                    )
        return result
