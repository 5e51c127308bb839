"""Traffic experiment: protocol comparison under realistic arrival load.

The paper's comparison (E4) serves a fixed ordered request sequence that
exists in full from round zero.  This experiment replays the same protocol
line-up against *time-varying* demand from the workload subsystem
(:mod:`repro.workloads`): Poisson arrivals, bursty MMPP arrivals and
diurnal rate modulation, with per-node admission control, traffic classes
and queueing policies.  Each (workload, protocol) cell reports the SLO
attainment per traffic class -- p50/p95/p99 arrival-to-service latency,
deadline-miss, drop and rejection rates -- on top of the usual satisfaction
and swap counts.

``--workload SPEC`` restricts the sweep to one spec from the
``"name:key=value,..."`` mini-language; ``--smoke`` shrinks everything to
one small fast cell (the CI gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

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
from repro.experiments.runner import PROTOCOL_NAMES
from repro.network.topologies import validate_topology_sizes
from repro.workloads.registry import (
    DEFAULT_WORKLOAD,
    WORKLOAD_NAMES,
    draws_groups,
    is_timed_workload,
    validate_workload_spec,
)
from repro.workloads.slo import TOTAL_KEY

#: The load sweep run when ``--workload`` is not given: one spec per
#: arrival family, each exercising a different subsystem feature
#: (admission control, heavy-tailed batches + priority queueing,
#: deadline-aware dropping).
DEFAULT_TRAFFIC_WORKLOADS: Tuple[str, ...] = (
    "poisson:rate=2,admission_rate=1.5,admission_burst=6",
    "bursty:rate_low=0.5,rate_high=6,batch_alpha=1.2,queue=priority",
    "diurnal:rate=2,amplitude=0.9,period=40,queue=deadline",
)

#: The single cell the --smoke gate runs.
SMOKE_WORKLOAD = "poisson:rate=2,admission_rate=1,admission_burst=3"
SMOKE_PROTOCOLS: Tuple[str, ...] = ("path-oblivious", "planned-connectionless")


@dataclass
class TrafficRow:
    """SLO attainment of one traffic class in one (workload, protocol) cell."""

    workload: str
    protocol: str
    traffic_class: str
    arrivals: int
    admitted: int
    rejected: int
    dropped: int
    satisfied: int
    p50_latency: float
    p95_latency: float
    p99_latency: float
    deadline_miss_rate: float
    rounds: int
    swaps: int


@dataclass
class TrafficResult(ExperimentResult):
    """Per-class SLO rows for every (workload, protocol) cell."""

    experiment = "traffic"
    COLUMNS = columns_of(TrafficRow)

    workloads: Tuple[str, ...]
    protocols: Tuple[str, ...]
    seed: int
    rows: List[TrafficRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rows = RowTable(self.rows)

    def totals(self) -> List[TrafficRow]:
        """The cross-class aggregate row of every cell."""
        return [row for row in self.rows if row.traffic_class == TOTAL_KEY]

    def format_report(self) -> str:
        headers = (
            "workload",
            "protocol",
            "class",
            "arrived",
            "admitted",
            "rejected",
            "dropped",
            "served",
            "p50",
            "p95",
            "p99",
            "miss rate",
        )
        table_rows = [
            (
                row.workload,
                row.protocol,
                row.traffic_class,
                row.arrivals,
                row.admitted,
                row.rejected,
                row.dropped,
                row.satisfied,
                row.p50_latency,
                row.p95_latency,
                row.p99_latency,
                f"{row.deadline_miss_rate:.3f}",
            )
            for row in self.rows
        ]
        lines = [
            format_table(
                headers,
                table_rows,
                title="Traffic: SLO attainment under arrival load",
                float_format="{:.1f}",
            )
        ]
        for row in self.totals():
            lines.append(
                f"  {row.workload} / {row.protocol}: {row.satisfied}/{row.arrivals} served "
                f"in {row.rounds} rounds ({row.swaps} swaps, "
                f"p95 latency {row.p95_latency:.1f} rounds)"
            )
        return "\n".join(lines)


def _workload_spec(value: str) -> str:
    """argparse type: validate a workload spec string, keeping it verbatim."""
    return validate_workload_spec(value)


@register
class TrafficExperiment(Experiment):
    """The arrival-load protocol comparison as a registered experiment."""

    name = "traffic"
    summary = "Protocol comparison under Poisson/bursty/diurnal arrival load with SLO metrics."
    params = (
        ParamSpec(
            "workload",
            _workload_spec,
            None,
            "run only this workload, as 'name' or 'name:key=value,...' (names: "
            + ", ".join(name for name in WORKLOAD_NAMES if name != DEFAULT_WORKLOAD)
            + "; default: the Poisson/bursty/diurnal sweep)",
            metavar="SPEC",
        ),
        ParamSpec("topology", str, "cycle", "topology family of the shared workload"),
        ParamSpec("n_nodes", int, 16, "number of nodes |N|", flag="--nodes"),
        ParamSpec(
            "n_requests",
            int,
            40,
            "arrival budget per cell (the trace is truncated to this many requests)",
            flag="--requests",
        ),
        ParamSpec(
            "smoke",
            bool,
            False,
            "shrink the sweep to one small fast cell (CI gate)",
            is_flag=True,
        ),
        ParamSpec("workloads", tuple, None, "explicit workload spec list", cli=False),
        ParamSpec("protocols", tuple, PROTOCOL_NAMES, "protocols to run", cli=False),
        ParamSpec("n_consumer_pairs", int, 12, "consumer pairs drawn per trial", cli=False),
        ParamSpec("seed", int, 1, "workload seed", cli=False),
        ParamSpec("max_rounds", int, 20_000, "safety cap on simulated rounds", cli=False),
    )
    smoke_preset = {
        "workload": None,
        "workloads": (SMOKE_WORKLOAD,),
        "protocols": SMOKE_PROTOCOLS,
        "n_nodes": SmokeCap(9),
        "n_requests": SmokeCap(12),
        "n_consumer_pairs": SmokeCap(6),
        "max_rounds": SmokeCap(3000),
    }

    def normalize(self, params):
        workloads = params["workloads"]
        if workloads is None:
            single = params["workload"]
            workloads = (single,) if single else DEFAULT_TRAFFIC_WORKLOADS
        specs = tuple(validate_workload_spec(spec) for spec in workloads)
        for spec in specs:
            if not is_timed_workload(spec):
                raise ValueError(
                    "the traffic experiment needs an arrival-timed workload, "
                    f"not {spec!r} (the paper's sequence workload has no arrival process)"
                )
        params["workloads"] = specs
        params["protocols"] = tuple(params["protocols"])
        group_specs = tuple(spec for spec in specs if draws_groups(spec))
        if group_specs:
            # The planned baselines serve 2-party requests only; a
            # group-emitting workload would trip their guard mid-trial.
            # Prune them from the default protocol set; an explicit
            # planned choice is a config error.
            planned = tuple(p for p in params["protocols"] if p.startswith("planned-"))
            if params["protocols"] == tuple(PROTOCOL_NAMES):
                params["protocols"] = tuple(
                    p for p in params["protocols"] if not p.startswith("planned-")
                )
            elif planned:
                raise ValueError(
                    "planned protocols serve 2-party requests only; drop "
                    f"{', '.join(planned)} or the group-emitting workload "
                    f"({', '.join(group_specs)})"
                )
        self.apply_smoke(params)
        validate_topology_sizes((params["topology"],), (params["n_nodes"],))
        return params

    def build_grid(self, params) -> List[ExperimentConfig]:
        return [
            ExperimentConfig(
                topology=params["topology"],
                n_nodes=params["n_nodes"],
                n_consumer_pairs=params["n_consumer_pairs"],
                n_requests=params["n_requests"],
                seed=params["seed"],
                protocol=protocol,
                workload=spec,
                max_rounds=params["max_rounds"],
            )
            for spec in params["workloads"]
            for protocol in params["protocols"]
        ]

    def reduce(self, outcomes: List[TrialOutcome], params) -> TrafficResult:
        result = TrafficResult(
            workloads=params["workloads"],
            protocols=params["protocols"],
            seed=params["seed"],
        )
        for outcome in outcomes:
            for class_name in sorted(outcome.slo):
                row = outcome.slo[class_name]
                result.rows.append(
                    TrafficRow(
                        workload=outcome.config.workload,
                        protocol=outcome.config.protocol,
                        traffic_class=class_name,
                        arrivals=int(row["arrivals"]),
                        admitted=int(row["admitted"]),
                        rejected=int(row["rejected"]),
                        dropped=int(row["dropped"]),
                        satisfied=int(row["satisfied"]),
                        p50_latency=float(row["p50_latency"]),
                        p95_latency=float(row["p95_latency"]),
                        p99_latency=float(row["p99_latency"]),
                        deadline_miss_rate=float(row["deadline_miss_rate"]),
                        rounds=outcome.rounds,
                        swaps=outcome.swaps_performed,
                    )
                )
        return result
