"""Experiment E5: ablations over the protocol's design choices (Sections 4 and 6).

The axes are indexed in ``docs/reproducing.md``; how an experiment plugs
into the registry is described in ``docs/architecture.md``.

Each ablation varies exactly one knob of the path-oblivious protocol on a
fixed workload:

* ``swap-rate``      -- the per-node swaps-per-round rate (the paper claims
  the results are insensitive to it),
* ``policy``         -- candidate selection rule (paper's min-recipient vs
  random vs the distance-weighted refinement of §6),
* ``knowledge``      -- global counts vs gossip with various fanouts (§6),
* ``hybrid``         -- pure balancing vs balancing + targeted fallback (§6),
* ``density``        -- extra generation edges beyond bare connectivity on
  the random grid (the "well-provisioned network" argument of §2),
* ``recurrence``     -- exact vs paper-literal overhead denominator (a
  measurement ablation: same runs, different metric),
* ``balancer``       -- naive vs incremental (idle-skipping) engine mode
  (an implementation ablation: the two must report identical physics, so
  this axis doubles as an end-to-end equivalence check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ParamSpec,
    RowTable,
    columns_of,
)
from repro.experiments.config import ExperimentConfig, TrialOutcome
from repro.experiments.registry import register
from repro.network.topologies import validate_topology_sizes

#: The ablation axes this experiment knows how to run.
ABLATION_AXES: Tuple[str, ...] = (
    "swap-rate",
    "policy",
    "knowledge",
    "hybrid",
    "density",
    "recurrence",
    "balancer",
)


@dataclass
class AblationRow:
    """One ablation variant's headline numbers."""

    axis: str
    variant: str
    overhead_exact: float
    overhead_paper: float
    swaps: int
    rounds: int
    satisfied: str
    mean_wait: float


@dataclass
class AblationResult(ExperimentResult):
    """All ablation rows plus the raw outcomes."""

    experiment = "ablations"
    COLUMNS = columns_of(AblationRow)

    base_config: ExperimentConfig
    rows: List[AblationRow] = field(default_factory=list)
    outcomes: List[TrialOutcome] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Structured records stay attribute-accessible (result.rows);
        # calling the table yields the uniform contract's flat tuples.
        self.rows = RowTable(self.rows)

    def rows_for(self, axis: str) -> List[AblationRow]:
        return [row for row in self.rows if row.axis == axis]

    def format_report(self) -> str:
        headers = ("axis", "variant", "overhead", "overhead(paper)", "swaps", "rounds", "satisfied", "mean wait")
        table_rows = [
            (
                row.axis,
                row.variant,
                row.overhead_exact,
                row.overhead_paper,
                row.swaps,
                row.rounds,
                row.satisfied,
                row.mean_wait,
            )
            for row in self.rows
        ]
        title = (
            f"E5: ablations ({self.base_config.topology}, |N|={self.base_config.n_nodes}, "
            f"D={self.base_config.distillation:g})"
        )
        return format_table(headers, table_rows, title=title)


def _record(result: AblationResult, axis: str, variant: str, outcome: TrialOutcome) -> None:
    result.outcomes.append(outcome)
    result.rows.append(
        AblationRow(
            axis=axis,
            variant=variant,
            overhead_exact=outcome.overhead_exact,
            overhead_paper=outcome.overhead_paper,
            swaps=outcome.swaps_performed,
            rounds=outcome.rounds,
            satisfied=f"{outcome.requests_satisfied}/{outcome.requests_total}",
            mean_wait=outcome.mean_waiting_rounds,
        )
    )


def ablation_variants(
    base: ExperimentConfig, axes: Sequence[str] = ABLATION_AXES
) -> List[Tuple[str, str, ExperimentConfig]]:
    """The flat ``(axis, variant, config)`` grid behind :class:`AblationsExperiment`."""
    unknown = [axis for axis in axes if axis not in ABLATION_AXES]
    if unknown:
        raise ValueError(f"unknown ablation axes {unknown}; choose from {ABLATION_AXES}")
    variants: List[Tuple[str, str, ExperimentConfig]] = []

    if "swap-rate" in axes:
        for rate in (1, 2, 4):
            variants.append(
                ("swap-rate", f"{rate}/node/round", base.with_(swaps_per_node_per_round=rate))
            )

    if "policy" in axes:
        for policy in ("min-recipient", "random", "distance-weighted"):
            config = base.with_(policy=policy)
            if policy == "distance-weighted":
                config = config.with_(policy_max_detour=2)
            variants.append(("policy", policy, config))

    if "knowledge" in axes:
        variants.append(("knowledge", "global", base))
        for fanout in (2, 4):
            variants.append(
                (
                    "knowledge",
                    f"gossip-fanout{fanout}",
                    base.with_(knowledge="gossip", gossip_fanout=fanout),
                )
            )

    if "hybrid" in axes:
        variants.append(("hybrid", "pure-oblivious", base))
        variants.append(("hybrid", "with-fallback", base.with_(use_hybrid_fallback=True)))

    if "density" in axes:
        for fraction in (0.0, 0.25, 0.5):
            variants.append(
                (
                    "density",
                    f"extra-edges={fraction:g}",
                    base.with_(topology="random-grid", extra_edge_fraction=fraction),
                )
            )

    if "recurrence" in axes:
        variants.append(("recurrence", "exact-denominator", base))

    if "balancer" in axes:
        for engine in ("naive", "incremental"):
            variants.append(("balancer", engine, base.with_(balancer=engine)))

    return variants


def _base_config(params) -> ExperimentConfig:
    return ExperimentConfig(
        topology=params["topology"],
        n_nodes=params["n_nodes"],
        distillation=params["distillation"],
        n_requests=params["n_requests"],
        n_consumer_pairs=params["n_consumer_pairs"],
        seed=params["seed"],
        balancer=params["balancer"],
    )


@register
class AblationsExperiment(Experiment):
    """The design-choice ablations as a registered experiment.

    The full variant grid is materialised up front and executed as one
    sweep through the runtime layer, so every variant (the base config
    appears several times; :func:`repro.experiments.runner.run_trial` is
    pure, so duplicates are computed once) can run in parallel.
    """

    name = "ablations"
    summary = "One-knob-at-a-time ablations of the protocol's design choices (E5, Sections 4/6)."
    params = (
        ParamSpec("n_nodes", int, 25, "number of nodes |N|", flag="--nodes"),
        ParamSpec("n_requests", int, 50, "length of the consumption request sequence", flag="--requests"),
        ParamSpec(
            "balancer",
            str,
            "naive",
            "balancing engine the non-balancer axes run under",
            choices=("naive", "incremental"),
        ),
        ParamSpec("axes", tuple, ABLATION_AXES, "ablation axes to run", cli=False),
        ParamSpec("topology", str, "random-grid", "topology family of the base workload", cli=False),
        ParamSpec("distillation", float, 2.0, "distillation overhead D of the base workload", cli=False),
        ParamSpec("n_consumer_pairs", int, 15, "consumer pairs drawn per trial", cli=False),
        ParamSpec("seed", int, 5, "workload seed", cli=False),
    )

    def normalize(self, params):
        topologies = (params["topology"],)
        if "density" in params["axes"]:
            topologies += ("random-grid",)  # the density axis rebuilds on random-grid
        validate_topology_sizes(topologies, (params["n_nodes"],))
        return params

    def build_grid(self, params) -> List[ExperimentConfig]:
        variants = ablation_variants(_base_config(params), params["axes"])
        return [config for _, _, config in variants]

    def reduce(self, outcomes: List[TrialOutcome], params) -> AblationResult:
        base = _base_config(params)
        # ablation_variants is deterministic in (base, axes), so the labels
        # rebuilt here line up 1:1 with the executed grid.
        variants = ablation_variants(base, params["axes"])
        result = AblationResult(base_config=base)
        recurrence_outcome: Optional[TrialOutcome] = None
        for (axis, variant, _), outcome in zip(variants, outcomes):
            _record(result, axis, variant, outcome)
            if axis == "recurrence":
                recurrence_outcome = outcome

        if recurrence_outcome is not None:
            outcome = recurrence_outcome
            # Same run, re-scored under the paper-literal denominator.
            result.rows.append(
                AblationRow(
                    axis="recurrence",
                    variant="paper-denominator",
                    overhead_exact=outcome.overhead_paper,
                    overhead_paper=outcome.overhead_paper,
                    swaps=outcome.swaps_performed,
                    rounds=outcome.rounds,
                    satisfied=f"{outcome.requests_satisfied}/{outcome.requests_total}",
                    mean_wait=outcome.mean_waiting_rounds,
                )
            )

        return result
