"""Named scenarios and the ``"name:key=value,..."`` spec mini-language.

:class:`~repro.experiments.config.ExperimentConfig` carries its scenario as
a *spec string* (e.g. ``"link-churn"`` or ``"flaky-links:rate=0.05"``), kept
declarative so configs stay hashable and picklable; the
concrete :class:`~repro.scenarios.scenario.Scenario` is only built once the
trial's topology and random streams exist (:func:`build_scenario`).

``validate_scenario_spec`` is cheap and topology-free, so configs can reject
a bad spec at construction time instead of deep inside a worker process.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.network.topology import Topology
from repro.runtime.seeding import RandomStreams
from repro.scenarios import schedules
from repro.scenarios.scenario import Scenario

#: Spec value types the mini-language can express.
ParamValue = Union[int, float, bool]

#: Scenario the config default means: inject nothing.
NO_SCENARIO = "none"

#: Allowed parameters (and whether each is required) per scenario name.
SCENARIO_PARAMS: Dict[str, Tuple[str, ...]] = {
    NO_SCENARIO: (),
    "link-churn": ("start", "period", "downtime", "count", "drop_pairs"),
    "flaky-links": ("rate", "mean_downtime", "span", "drop_pairs"),
    "node-churn": ("start", "period", "downtime", "count"),
    "demand-drift": ("start", "period", "count", "fraction"),
    "decoherence-ramp": ("start", "period", "count", "factor"),
}

#: Every scenario name the CLI / config accept.
SCENARIO_NAMES: Tuple[str, ...] = tuple(sorted(SCENARIO_PARAMS))


def _parse_value(raw: str) -> ParamValue:
    lowered = raw.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError as error:
        raise ValueError(f"scenario parameter value {raw!r} is not a number or bool") from error


def parse_scenario_spec(spec: str) -> Tuple[str, Dict[str, ParamValue]]:
    """Split ``"name:key=value,key=value"`` into a name and a parameter dict.

    Raises :class:`ValueError` for unknown names, unknown or repeated
    parameters, and malformed values -- the same errors
    :func:`validate_scenario_spec` surfaces at config time.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"scenario spec must be a non-empty string, got {spec!r}")
    name, _, raw_params = spec.strip().partition(":")
    name = name.strip()
    if name not in SCENARIO_PARAMS:
        raise ValueError(
            f"unknown scenario {name!r}; choose from {', '.join(SCENARIO_NAMES)}"
        )
    params: Dict[str, ParamValue] = {}
    if raw_params.strip():
        for item in raw_params.split(","):
            key, separator, value = item.partition("=")
            key = key.strip()
            if not separator or not key:
                raise ValueError(f"malformed scenario parameter {item!r} (expected key=value)")
            if key not in SCENARIO_PARAMS[name]:
                raise ValueError(
                    f"scenario {name!r} does not take parameter {key!r}; "
                    f"allowed: {', '.join(SCENARIO_PARAMS[name]) or '(none)'}"
                )
            if key in params:
                raise ValueError(f"scenario parameter {key!r} given twice")
            params[key] = _parse_value(value)
    return name, params


def validate_scenario_spec(spec: str) -> str:
    """Validate ``spec`` (raising :class:`ValueError`) and return it normalised."""
    name, params = parse_scenario_spec(spec)
    if not params:
        return name
    rendered = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{name}:{rendered}"


def build_scenario(
    spec: str,
    topology: Topology,
    streams: Optional[RandomStreams] = None,
    horizon: Optional[int] = None,
) -> Optional[Scenario]:
    """Compile a spec string into a concrete :class:`Scenario` for one trial.

    Returns ``None`` for the ``"none"`` spec.  ``horizon`` (usually the
    config's ``max_rounds``) caps deterministic schedules; stochastic
    schedules draw from the trial's ``"scenario"`` stream, so the result is
    a pure function of ``(spec, topology, seed)``.
    """
    name, params = parse_scenario_spec(spec)
    if name == NO_SCENARIO:
        return None
    if name == "link-churn":
        perturbations = schedules.deterministic_link_churn(
            topology,
            start=int(params.get("start", 10)),
            period=int(params.get("period", 25)),
            downtime=int(params.get("downtime", 10)),
            count=int(params.get("count", 8)),
            drop_pairs=bool(params.get("drop_pairs", False)),
            horizon=horizon,
        )
    elif name == "flaky-links":
        if streams is None:
            raise ValueError("the flaky-links scenario needs the trial's random streams")
        perturbations = schedules.poisson_link_churn(
            topology,
            rng=streams.get("scenario"),
            rate=float(params.get("rate", 0.01)),
            mean_downtime=float(params.get("mean_downtime", 10.0)),
            span=int(params.get("span", 400)),
            drop_pairs=bool(params.get("drop_pairs", False)),
        )
    elif name == "node-churn":
        perturbations = schedules.node_churn(
            topology,
            start=int(params.get("start", 15)),
            period=int(params.get("period", 30)),
            downtime=int(params.get("downtime", 12)),
            count=int(params.get("count", 4)),
            horizon=horizon,
        )
    elif name == "demand-drift":
        perturbations = schedules.demand_drift(
            topology,
            start=int(params.get("start", 10)),
            period=int(params.get("period", 20)),
            count=int(params.get("count", 4)),
            fraction=float(params.get("fraction", 0.5)),
            horizon=horizon,
        )
    elif name == "decoherence-ramp":
        perturbations = schedules.decoherence_ramp(
            start=int(params.get("start", 10)),
            period=int(params.get("period", 20)),
            count=int(params.get("count", 3)),
            factor=float(params.get("factor", 1.5)),
            horizon=horizon,
        )
    else:  # pragma: no cover - SCENARIO_PARAMS and this chain must stay in sync
        raise ValueError(f"scenario {name!r} has no builder")
    return Scenario(validate_scenario_spec(spec), perturbations)
