"""Profiling harness: run any registered experiment under cProfile.

``repro profile <experiment>`` (or :func:`profile_experiment` from code)
executes one registered experiment with deterministic parameters in this
process (``workers=1``: the worker pool would hide every trial from the
profiler), collects a cProfile trace, and aggregates it two ways:

* **hotspots** — the top functions by cumulative time, each attributed to
  its dotted ``repro`` module (or the stdlib/builtin origin), and
* **modules** — total in-function time rolled up per module, the view
  that says which layer a run spends its time in.

The report is a plain JSON payload validated against
:data:`repro.perf.schemas.PROFILE_SCHEMA` before it is returned, so the CI
job can pipe it straight into the dependency-free validator.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Any, Dict, Optional

from repro.experiments.api import RuntimeOptions
from repro.experiments.registry import get_experiment
from repro.perf.schemas import PERF_SCHEMA_VERSION, validate_profile

#: Parameter overrides applied (where an experiment declares the parameter)
#: by ``--smoke`` so profiling any experiment stays CI-fast.  Experiments
#: with their own ``smoke`` ParamSpec just get ``smoke=True``.
_SMOKE_OVERRIDES: Dict[str, Any] = {
    "smoke": True,
    "n_nodes": 9,
    "n_requests": 6,
    "n_consumer_pairs": 5,
    "distillation_values": (1.0,),
    "sizes": (9,),
    "seeds": 1,
}

_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def smoke_params(experiment) -> Dict[str, Any]:
    """The subset of :data:`_SMOKE_OVERRIDES` ``experiment`` declares."""
    names = {spec.name for spec in experiment.params}
    if "smoke" in names:
        return {"smoke": True}
    return {name: value for name, value in _SMOKE_OVERRIDES.items() if name in names}


def _module_for(filename: str) -> str:
    """Dotted ``repro`` module for a profile entry, or its non-repro origin."""
    if filename.startswith("~") or not filename:
        return "<builtin>"
    path = Path(filename)
    try:
        relative = path.resolve().relative_to(_PACKAGE_ROOT)
    except ValueError:
        return path.stem or "<unknown>"
    parts = list(relative.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(["repro", *parts]) if parts else "repro"


def profile_experiment(
    name: str,
    params: Optional[Dict[str, Any]] = None,
    smoke: bool = False,
    top: int = 25,
) -> Dict[str, Any]:
    """Run experiment ``name`` under cProfile and return the validated report.

    Parameters
    ----------
    name:
        A registered experiment name (``repro --list``).
    params:
        Explicit parameter overrides passed to ``Experiment.run``.
    smoke:
        Shrink the run with :func:`smoke_params` (CI-sized, seconds not
        minutes); explicit ``params`` win over smoke overrides.
    top:
        How many hotspot functions to keep in the report.
    """
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    experiment = get_experiment(name)
    run_params: Dict[str, Any] = {}
    if smoke:
        run_params.update(smoke_params(experiment))
    if params:
        run_params.update(params)

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        # In-process: cProfile sees only this process, not pool workers.
        experiment.run(runtime=RuntimeOptions(workers=1), **run_params)
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler)
    hotspots = []
    per_module: Dict[str, float] = {}
    total_seconds = 0.0
    total_calls = 0
    for (filename, lineno, function), (_, ncalls, tottime, cumtime, _) in stats.stats.items():
        module = _module_for(filename)
        total_seconds += tottime
        total_calls += ncalls
        per_module[module] = per_module.get(module, 0.0) + tottime
        hotspots.append(
            {
                "function": f"{function}:{lineno}" if lineno else function,
                "module": module,
                "calls": int(ncalls),
                "tottime": float(tottime),
                "cumtime": float(cumtime),
            }
        )
    hotspots.sort(key=lambda entry: (-entry["cumtime"], entry["module"], entry["function"]))
    modules = [
        {"module": module, "tottime": float(seconds)}
        for module, seconds in sorted(per_module.items(), key=lambda item: (-item[1], item[0]))
    ]
    report = {
        "schema_version": PERF_SCHEMA_VERSION,
        "kind": "profile",
        "experiment": name,
        "smoke": bool(smoke),
        "total_seconds": float(total_seconds),
        "total_calls": int(total_calls),
        "hotspots": hotspots[:top],
        "modules": modules,
    }
    validate_profile(report)
    return report


def format_report(report: Dict[str, Any], top: int = 10) -> str:
    """A terse human rendering of a profile report (the CLI's text output)."""
    lines = [
        f"profile of experiment {report['experiment']!r} "
        f"(smoke={report['smoke']}): "
        f"{report['total_seconds']:.3f}s over {report['total_calls']} calls",
        f"{'cumtime':>10}  {'tottime':>10}  {'calls':>8}  function",
    ]
    for entry in report["hotspots"][:top]:
        lines.append(
            f"{entry['cumtime']:>10.4f}  {entry['tottime']:>10.4f}  "
            f"{entry['calls']:>8}  {entry['module']}.{entry['function']}"
        )
    return "\n".join(lines)
