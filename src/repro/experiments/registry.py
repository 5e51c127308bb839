"""The experiment registry.

Topologies and scenarios already resolve by name; this module gives
experiments the same treatment.  Each experiment module decorates its
:class:`~repro.experiments.api.Experiment` subclass with :func:`register`,
and everything downstream -- the CLI's auto-generated subparsers,
``repro --list``, the docs/CI coverage gates, programmatic callers using
:func:`get_experiment` -- iterates the registry instead of hand-maintained
tables.

:data:`MANIFEST` names each built-in experiment's module, so the registry
answers :func:`experiment_names` without importing any experiment (nor
numpy): :func:`get_experiment` imports the one module it is asked for, and
only :func:`iter_experiments` imports them all.  Adding a built-in is one
registered class plus one manifest line; a class registered at run time
(a plugin, a test) joins the registry without one.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Dict, List, Tuple, Type

if TYPE_CHECKING:
    from repro.experiments.api import Experiment

#: Every built-in experiment: its name and the module whose ``@register``
#: defines it (``tests/test_experiment_api.py`` checks the two agree).
MANIFEST: Dict[str, str] = {
    "ablations": "repro.experiments.ablations",
    "classical": "repro.experiments.classical_overhead",
    "comparison": "repro.experiments.comparison",
    "figure4": "repro.experiments.figure4",
    "figure5": "repro.experiments.figure5",
    "lp": "repro.experiments.lp_validation",
    "multicast": "repro.experiments.multicast",
    "resilience": "repro.experiments.resilience",
    "scaling": "repro.experiments.scaling",
    "traffic": "repro.experiments.traffic",
}

_REGISTRY: Dict[str, Experiment] = {}


def register(experiment_class: Type[Experiment]) -> Type[Experiment]:
    """Class decorator: validate and register an experiment (by its ``name``).

    The class is instantiated once, eagerly, so malformed parameter tables
    fail at import time rather than mid-run.  Re-registering the same class
    (module reloads) is a no-op; a *different* class claiming a taken name
    is an error, and so is a manifest name claimed outside its module.
    """
    from repro.experiments.api import ParamSpec

    instance = experiment_class()
    name = instance.name
    if not name:
        raise ValueError(f"{experiment_class.__qualname__} must set a non-empty name")
    if not instance.summary:
        raise ValueError(f"experiment {name!r} must set a one-line summary")
    seen_params: set = set()
    seen_flags: set = set()
    for spec in instance.params:
        if not isinstance(spec, ParamSpec):
            raise TypeError(f"experiment {name!r}: params must be ParamSpec, got {spec!r}")
        if spec.name in seen_params:
            raise ValueError(f"experiment {name!r}: duplicate parameter {spec.name!r}")
        seen_params.add(spec.name)
        if spec.cli:
            if spec.cli_flag in seen_flags:
                raise ValueError(f"experiment {name!r}: duplicate CLI flag {spec.cli_flag!r}")
            seen_flags.add(spec.cli_flag)
    home = MANIFEST.get(name)
    if home is not None and experiment_class.__module__ != home:
        raise ValueError(
            f"experiment name {name!r} belongs to {home} (the manifest), "
            f"not {experiment_class.__module__}"
        )
    existing = _REGISTRY.get(name)
    if existing is not None and type(existing).__qualname__ != experiment_class.__qualname__:
        raise ValueError(
            f"experiment name {name!r} already registered by {type(existing).__qualname__}"
        )
    _REGISTRY[name] = instance
    return experiment_class


def get_experiment(name: str) -> Experiment:
    """The experiment called ``name``, its module imported on first use
    (KeyError with the menu)."""
    if name not in _REGISTRY and name in MANIFEST:
        importlib.import_module(MANIFEST[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {', '.join(experiment_names())}"
        ) from None


def experiment_names() -> Tuple[str, ...]:
    """Every experiment name, sorted: the manifest plus run-time registrations."""
    return tuple(sorted(MANIFEST.keys() | _REGISTRY.keys()))


def iter_experiments() -> List[Experiment]:
    """Every experiment instance, sorted by name (imports every module)."""
    return [get_experiment(name) for name in experiment_names()]
