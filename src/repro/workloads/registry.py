"""Named workloads and the ``"name:key=value,..."`` spec mini-language.

Mirrors :mod:`repro.scenarios.registry`: a trial's workload travels on
:class:`~repro.experiments.config.ExperimentConfig` as a declarative *spec
string* (e.g. ``"poisson:rate=2,admission_rate=1"``), which keeps configs
hashable and picklable -- the spec enters the config's equality and hash
verbatim, so a sweep never merges two cells with different workloads.  The
concrete request stream is only materialised per trial by
:func:`build_workload`, once the topology and seeded streams exist.

``validate_workload_spec`` is cheap and topology-free so a bad spec fails
at config-construction (or CLI-parse) time, not deep inside a worker.
Unlike scenario parameters, workload parameters may be strings (queueing
policy names, class-mix names, replay trace paths).
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.network.topology import Topology
from repro.protocols.fusion import GROUP_STRATEGIES
from repro.runtime.seeding import RandomStreams
from repro.workloads import models
from repro.workloads.base import CLASS_MIXES, WorkloadBuild
from repro.workloads.queueing import QUEUE_POLICIES

#: Spec value types the mini-language can express.
ParamValue = Union[int, float, bool, str]

#: The workload every config runs unless told otherwise: the paper's
#: ordered 35-pair request sequence, bit-identical to the pre-subsystem
#: generation.
DEFAULT_WORKLOAD = "sequence"

#: Parameters every timed (arrival-model) workload shares.  The three
#: ``group_*`` knobs control multicast emission: ``group_fraction`` of
#: arrivals (default 0) target a GHZ group of ``group_size`` members served
#: with ``group_strategy``.
_COMMON_TIMED_PARAMS: Tuple[str, ...] = (
    "mix",
    "queue",
    "admission_rate",
    "admission_burst",
    "batch_alpha",
    "batch_cap",
    "horizon",
    "group_fraction",
    "group_size",
    "group_strategy",
)

#: Allowed parameters per workload name.
WORKLOAD_PARAMS: Dict[str, Tuple[str, ...]] = {
    DEFAULT_WORKLOAD: (),
    "poisson": ("rate",) + _COMMON_TIMED_PARAMS,
    "bursty": ("rate_low", "rate_high", "mean_calm", "mean_burst") + _COMMON_TIMED_PARAMS,
    "diurnal": ("rate", "amplitude", "period") + _COMMON_TIMED_PARAMS,
    "multicast": ("rate",) + _COMMON_TIMED_PARAMS,
    "replay": ("file", "queue", "admission_rate", "admission_burst"),
}

#: Every workload name the CLI / config accept.
WORKLOAD_NAMES: Tuple[str, ...] = tuple(sorted(WORKLOAD_PARAMS))

#: Parameters whose values stay strings (everything else must parse as a
#: number or bool, as in the scenario mini-language).
_STRING_PARAMS: Tuple[str, ...] = ("mix", "queue", "file", "group_strategy")


def _parse_value(key: str, raw: str) -> ParamValue:
    raw = raw.strip()
    if key in _STRING_PARAMS:
        return raw
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError as error:
        raise ValueError(
            f"workload parameter {key}={raw!r} is not a number or bool"
        ) from error


def parse_workload_spec(spec: str) -> Tuple[str, Dict[str, ParamValue]]:
    """Split ``"name:key=value,key=value"`` into a name and a parameter dict.

    Raises :class:`ValueError` for unknown names, unknown or repeated
    parameters, malformed values, and semantically invalid policy / mix
    names -- the same errors :func:`validate_workload_spec` surfaces at
    config time.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError(f"workload spec must be a non-empty string, got {spec!r}")
    name, _, raw_params = spec.strip().partition(":")
    name = name.strip()
    if name not in WORKLOAD_PARAMS:
        raise ValueError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}"
        )
    params: Dict[str, ParamValue] = {}
    if raw_params.strip():
        for item in raw_params.split(","):
            key, separator, value = item.partition("=")
            key = key.strip()
            if not separator or not key:
                raise ValueError(f"malformed workload parameter {item!r} (expected key=value)")
            if key not in WORKLOAD_PARAMS[name]:
                raise ValueError(
                    f"workload {name!r} does not take parameter {key!r}; "
                    f"allowed: {', '.join(WORKLOAD_PARAMS[name]) or '(none)'}"
                )
            if key in params:
                raise ValueError(f"workload parameter {key!r} given twice")
            params[key] = _parse_value(key, value)
    _check_semantics(name, params)
    return name, params


def _check_semantics(name: str, params: Dict[str, ParamValue]) -> None:
    queue = params.get("queue")
    if queue is not None and queue not in QUEUE_POLICIES:
        raise ValueError(
            f"unknown queue policy {queue!r}; choose from {', '.join(QUEUE_POLICIES)}"
        )
    mix = params.get("mix")
    if mix is not None and mix not in CLASS_MIXES:
        raise ValueError(
            f"unknown class mix {mix!r}; choose from {', '.join(sorted(CLASS_MIXES))}"
        )
    if name == "replay" and "file" not in params:
        raise ValueError("the replay workload needs a file=PATH parameter")
    strategy = params.get("group_strategy")
    if strategy is not None and strategy not in GROUP_STRATEGIES:
        raise ValueError(
            f"unknown group strategy {strategy!r}; choose from {', '.join(GROUP_STRATEGIES)}"
        )
    group_size = params.get("group_size")
    if group_size is not None and (not isinstance(group_size, int) or group_size < 2):
        raise ValueError(f"group_size must be an integer >= 2, got {group_size!r}")
    fraction = params.get("group_fraction")
    if fraction is not None and not 0.0 <= float(fraction) <= 1.0:
        raise ValueError(f"group_fraction must be within [0, 1], got {fraction!r}")


def validate_workload_spec(spec: str) -> str:
    """Validate ``spec`` (raising :class:`ValueError`) and return it normalised."""
    name, params = parse_workload_spec(spec)
    if not params:
        return name
    rendered = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{name}:{rendered}"


def is_timed_workload(spec: str) -> bool:
    """Whether ``spec`` produces an arrival-timed (SLO-tracked) stream."""
    name, _ = parse_workload_spec(spec)
    return name != DEFAULT_WORKLOAD


def reads_trace_file(spec: str) -> bool:
    """Whether ``spec``'s requests come from a file read when the trial runs.

    Such a trial is not a function of its spec alone: the same spec gives
    another request stream once the file is edited.
    """
    name, _ = parse_workload_spec(spec)
    return name == "replay"


def draws_groups(spec: str) -> bool:
    """Whether ``spec`` can emit group (k >= 3) requests.

    Topology-free, so callers can prune group-incapable protocols (the
    planned baselines serve 2-party requests only) at config time instead
    of hitting the protocols' guard mid-trial.
    """
    name, params = parse_workload_spec(spec)
    default = models.MULTICAST_DEFAULT_FRACTION if name == "multicast" else 0.0
    return float(params.get("group_fraction", default)) > 0.0


def build_workload(
    spec: str,
    topology: Topology,
    n_consumer_pairs: int,
    n_requests: int,
    streams: RandomStreams,
) -> WorkloadBuild:
    """Compile a spec string into one trial's request stream.

    A pure function of ``(spec, topology, seed)``: pair selection draws from
    the trial's ``"consumers"`` stream, the paper workload's ordering from
    ``"requests"`` (bit-identical to the pre-subsystem generation), and all
    timed-workload randomness from the dedicated ``"workload"`` stream.
    """
    name, params = parse_workload_spec(spec)
    if name == DEFAULT_WORKLOAD:
        return models.build_sequence_workload(
            spec, topology, n_consumer_pairs, n_requests, streams
        )
    if name == "poisson":
        builder = models.build_poisson_workload
    elif name == "bursty":
        builder = models.build_bursty_workload
    elif name == "diurnal":
        builder = models.build_diurnal_workload
    elif name == "multicast":
        builder = models.build_multicast_workload
    elif name == "replay":
        builder = models.build_replay_workload
    else:  # pragma: no cover - WORKLOAD_PARAMS and this chain must stay in sync
        raise ValueError(f"workload {name!r} has no builder")
    return builder(spec, topology, n_consumer_pairs, n_requests, streams, params)
