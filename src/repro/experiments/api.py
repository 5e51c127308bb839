"""The unified experiment API.

Every experiment in :mod:`repro.experiments` is a subclass of
:class:`Experiment`: a ``name``, a one-line ``summary``, a typed
:class:`ParamSpec` table describing its parameters (defaults, help text,
choices, and the CLI flag each one becomes), and three hooks --

* :meth:`Experiment.build_grid` turns resolved parameters into the list of
  work units (for sweep experiments,
  :class:`~repro.experiments.config.ExperimentConfig` cells; for the
  others, the LP points, the one classical workload or the scaling cells),
* :meth:`Experiment.execute` runs the grid, one outcome per unit
  (defaulting to :class:`~repro.runtime.sweep.SweepRunner` with the
  :class:`RuntimeOptions` workers/cache threaded through), and
* :meth:`Experiment.reduce` folds the outcomes into an
  :class:`ExperimentResult`.

:meth:`Experiment.run` is the one execution path: the CLI, the profiler,
perfbench and the ``repro serve`` workers all call it.
:meth:`Experiment.plan` (resolve, normalize, ``build_grid``) is every check
an input can fail; ``run`` starts with it, and the CLI and ``repro serve``
run it as their pre-flight (``len(grid)`` is the size a served job reports).

Registering the class (:func:`repro.experiments.registry.register`) is all
it takes to gain a CLI subcommand: :mod:`repro.cli` generates one subparser
per registered experiment straight from its ParamSpec table, so flags that
do not belong to an experiment are hard parse errors instead of silently
ignored namespace entries.

:class:`ExperimentResult` is the uniform result contract: ``series()`` /
``rows()`` / ``format_report()`` as before, plus machine-readable
``to_json()`` / ``to_csv()`` and ``write(path, format=...)``, which every
subcommand exposes as ``--format`` / ``--output`` for free.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, fields, is_dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.reporting import json_safe, render_csv
from repro.obs.spans import span
from repro.runtime.seeding import seed_grid

#: Version stamp carried in every JSON payload (bump on breaking changes).
RESULT_SCHEMA_VERSION = 1

#: Output formats the result contract can render.
RESULT_FORMATS: Tuple[str, ...] = ("text", "json", "csv")


@dataclass(frozen=True)
class ParamSpec:
    """One typed parameter of an experiment.

    ``name`` is the keyword :meth:`Experiment.run` accepts; ``flag`` is the
    CLI long option the parameter becomes (default: ``--<name>`` with
    underscores dashed).  ``cli=False`` keeps a parameter programmatic-only
    (available to :meth:`Experiment.run` but not exposed as a flag).
    """

    name: str
    type: Callable[[str], Any]
    default: Any
    help: str
    choices: Optional[Tuple[Any, ...]] = None
    flag: Optional[str] = None
    nargs: Optional[str] = None
    metavar: Optional[str] = None
    cli: bool = True
    is_flag: bool = False  # boolean switch (argparse store_true)

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise ValueError(f"parameter name {self.name!r} is not an identifier")
        if self.flag is not None and not self.flag.startswith("--"):
            raise ValueError(f"CLI flag {self.flag!r} must start with '--'")

    @property
    def cli_flag(self) -> str:
        """The long option string this parameter appears as."""
        return self.flag or "--" + self.name.replace("_", "-")

    @property
    def dest(self) -> str:
        """The argparse namespace attribute the flag parses into."""
        return self.cli_flag.lstrip("-").replace("-", "_")

    def add_to_parser(self, parser) -> None:
        """Register this parameter on an argparse (sub)parser."""
        if not self.cli:
            raise ValueError(f"parameter {self.name!r} is not CLI-exposed")
        kwargs: Dict[str, Any] = {"help": self.help, "default": self.default}
        if self.is_flag:
            kwargs["action"] = "store_true"
            kwargs["default"] = bool(self.default)
        else:
            kwargs["type"] = self.type
            if self.choices is not None:
                kwargs["choices"] = self.choices
            if self.nargs is not None:
                kwargs["nargs"] = self.nargs
            if self.metavar is not None:
                kwargs["metavar"] = self.metavar
        parser.add_argument(self.cli_flag, **kwargs)

    def validate(self, value: Any) -> Any:
        """Check ``value`` against ``choices`` (``None`` always passes)."""
        if value is not None and self.choices is not None and value not in self.choices:
            raise ValueError(
                f"parameter {self.name!r} must be one of {self.choices}, got {value!r}"
            )
        return value


@dataclass(frozen=True)
class SmokeCap:
    """A smoke-preset entry that lowers a parameter instead of replacing it.

    ``smoke=True`` brings a number down to at most ``limit``, or a sequence
    (an explicit seed list, say) down to at most ``limit`` entries.
    """

    limit: int

    def exceeded_by(self, value: Any) -> bool:
        return (len(value) if isinstance(value, (list, tuple)) else value) > self.limit

    def lower(self, value: Any) -> Any:
        if isinstance(value, (list, tuple)):
            return value[: self.limit]
        return min(value, self.limit)


@dataclass
class RuntimeOptions:
    """How a grid executes: worker processes, result cache, progress hook.

    Threaded from the CLI's ``--workers`` / ``--cache`` flags (and the serve
    workers) into :meth:`Experiment.execute`.  Never changes any reported
    number.  ``workers=None`` (the default) means ``$REPRO_WORKERS``, or
    every CPU this process may run on; ``1`` keeps the run in this process.
    Workers fan out the sweep experiments' trials and ``lp``'s objective
    solves over the process-wide pool of :mod:`repro.runtime.pool`, whose
    ``spawn`` workers re-import the calling script (run from a script only
    under ``if __name__ == "__main__":``); the cache applies to sweep experiments only, and ``classical`` and
    ``scaling`` ignore both.  ``on_result(index, outcome, cached)`` is
    called once per grid unit as its outcome lands; an exception it raises
    aborts the run (the serve workers' cancel and timeout) and cancels the
    units not yet started.
    """

    workers: Optional[int] = None
    cache: Optional[Any] = None  # repro.runtime.ResultCache
    on_result: Optional[Callable[[int, Any, bool], None]] = None


def resolve_trial_seeds(seeds: Union[int, Sequence[int]], master_seed: Optional[int]) -> Tuple[int, ...]:
    """Normalise the two ways of asking for Monte-Carlo trials.

    Programmatic callers pass an explicit seed sequence; the CLI passes a
    trial *count* (``--seeds N``) plus an optional ``--master-seed`` the
    per-trial seeds are SHA-256-derived from.  Counts without a master seed
    use the seeds ``1..N`` directly, matching the historical CLI behaviour.
    """
    if isinstance(seeds, bool) or not isinstance(seeds, int):
        return tuple(int(seed) for seed in seeds)
    if seeds < 1:
        raise ValueError(f"seeds must be a positive trial count, got {seeds}")
    if master_seed is not None:
        return tuple(seed_grid(master_seed, seeds))
    return tuple(range(1, seeds + 1))


class RowTable(list):
    """A list of structured row records that is *also* the flat row accessor.

    Several result classes store their rows as a list of per-row dataclasses
    under the attribute ``rows`` (``result.rows`` -- iterated all over the
    test and benchmark suites), while the uniform result contract promises a
    ``rows()`` *method* returning flat tuples.  A RowTable serves both:
    it is a plain list of the structured records, and calling it renders the
    contract's flat tuples (``dataclasses.astuple`` per record).
    """

    def __call__(self) -> List[Tuple]:
        return [astuple(item) if is_dataclass(item) else tuple(item) for item in self]


def columns_of(row_class) -> Tuple[str, ...]:
    """The column names of a per-row dataclass, in field order."""
    return tuple(spec.name for spec in fields(row_class))


class ExperimentResult:
    """Uniform contract every experiment result satisfies.

    Subclasses provide ``format_report()`` (the human report), ``rows()``
    (flat tuples, one per table row -- either a method or a
    :class:`RowTable` attribute) and ``COLUMNS`` (the matching header
    names); ``series()`` optionally exposes the figure's named lines.  The
    base class derives the machine-readable surface -- ``to_payload()`` /
    ``to_json()`` / ``to_csv()`` / ``write()`` -- from those accessors.
    """

    #: Registry name of the experiment that produced this result.
    experiment: ClassVar[str] = ""
    #: Header names matching the flat tuples ``rows()`` yields.
    COLUMNS: ClassVar[Tuple[str, ...]] = ()

    def columns(self) -> Tuple[str, ...]:
        return tuple(self.COLUMNS)

    def series(self) -> Mapping[str, Mapping[Any, float]]:
        """Named series (figure lines); empty for table-only experiments."""
        return {}

    def rows(self) -> List[Tuple]:  # pragma: no cover - always overridden/shadowed
        raise NotImplementedError(f"{type(self).__name__} must provide rows()")

    def format_report(self) -> str:  # pragma: no cover - always overridden
        raise NotImplementedError(f"{type(self).__name__} must provide format_report()")

    def to_payload(self) -> Dict[str, Any]:
        """The JSON-ready dict behind :meth:`to_json` (schema-versioned)."""
        series = {
            str(name): {str(x): json_safe(y) for x, y in points.items()}
            for name, points in self.series().items()
        }
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "experiment": self.experiment or type(self).__name__,
            "columns": list(self.columns()),
            "rows": [[json_safe(cell) for cell in row] for row in self.rows()],
            "series": series,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The result as a JSON document (NaN/Inf sanitised to null)."""
        return json.dumps(self.to_payload(), indent=indent, allow_nan=False)

    def to_csv(self) -> str:
        """The result's rows as CSV, headed by :meth:`columns`."""
        return render_csv(self.columns(), self.rows())

    def render(self, format: str = "text") -> str:
        """Render in any of the uniform output formats."""
        if format == "text":
            return self.format_report()
        if format == "json":
            return self.to_json()
        if format == "csv":
            return self.to_csv()
        raise ValueError(f"unknown result format {format!r}; choose from {RESULT_FORMATS}")

    def write(self, path, format: str = "json", force: bool = False) -> Path:
        """Write the rendered result to ``path``; refuses to overwrite.

        Raises :class:`FileExistsError` unless ``force=True`` (the CLI's
        ``--force``).  Returns the written path.
        """
        if format not in RESULT_FORMATS:
            raise ValueError(f"unknown result format {format!r}; choose from {RESULT_FORMATS}")
        target = Path(path)
        if target.exists() and not force:
            raise FileExistsError(
                f"refusing to overwrite {target} (pass force=True, or --force on the CLI)"
            )
        content = self.render(format)
        if not content.endswith("\n"):
            content += "\n"
        target.write_text(content, encoding="utf-8")
        return target


class Experiment:
    """Base class every registered experiment derives from.

    Subclasses set ``name``, ``summary`` and ``params`` and implement
    :meth:`build_grid` and :meth:`reduce`; sweep-style experiments inherit
    the default :meth:`execute` (a :class:`~repro.runtime.sweep.SweepRunner`
    with the runtime options threaded through).  LP validation overrides it
    to fan its objective solves out over the same worker pool; classical
    accounting and scaling (which times its trials) override it with
    :meth:`execute_in_process`.
    """

    #: Registry / CLI subcommand name.
    name: ClassVar[str] = ""
    #: One-line description shown by ``repro --list``.
    summary: ClassVar[str] = ""
    #: The typed parameter table.
    params: ClassVar[Tuple[ParamSpec, ...]] = ()
    #: What ``smoke=True`` does to other parameters: each entry maps a
    #: parameter to the value smoke puts in its place, or to a
    #: :class:`SmokeCap` smoke lowers it to.  :meth:`resolve_params` rejects
    #: an explicit value smoke would replace or lower; ``normalize`` puts the
    #: preset in place with :meth:`apply_smoke`.
    smoke_preset: ClassVar[Mapping[str, Any]] = {}
    #: Whether an overridden :meth:`execute` still fans its units out over
    #: ``RuntimeOptions.workers`` (``lp`` does).
    parallel_execute: ClassVar[bool] = False

    @property
    def supports_runtime(self) -> bool:
        """Whether the grid runs through the parallel runtime layer (the
        class keeps the default :meth:`execute`); such experiments gain
        ``--workers`` / ``--cache`` / ``--cache-dir`` on the CLI."""
        return type(self).execute is Experiment.execute

    @property
    def supports_workers(self) -> bool:
        """Whether ``RuntimeOptions.workers`` reaches the grid: the sweep
        experiments and the :attr:`parallel_execute` ones, which gain
        ``--workers`` on the CLI."""
        return self.supports_runtime or self.parallel_execute

    # -- parameter handling -------------------------------------------------

    def cli_specs(self) -> Tuple[ParamSpec, ...]:
        """The subset of the parameter table exposed as CLI flags."""
        return tuple(spec for spec in self.params if spec.cli)

    def resolve_params(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Merge ``overrides`` into the parameter defaults, strictly.

        Unknown parameter names raise :class:`TypeError`; values violating
        a spec's ``choices`` raise :class:`ValueError`, and so does an
        explicit value a smoke run would silently override.
        """
        known = {spec.name: spec for spec in self.params}
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            raise TypeError(
                f"experiment {self.name!r} got unknown parameter(s) {unknown}; "
                f"known parameters: {sorted(known)}"
            )
        values = {name: spec.default for name, spec in known.items()}
        for name, value in overrides.items():
            values[name] = known[name].validate(value)
        if values.get("smoke"):
            self._reject_smoke_conflicts(overrides)
        return values

    def _reject_smoke_conflicts(self, explicit: Mapping[str, Any]) -> None:
        """Refuse explicit values a smoke run would replace or lower.

        A value smoke keeps -- the preset value itself, or one at or under
        a :class:`SmokeCap` -- passes, and so does ``None`` (every table's
        "use the default" spelling).
        """
        conflicts = []
        for name, preset in self.smoke_preset.items():
            value = explicit.get(name)
            if value is None:
                continue
            if isinstance(preset, SmokeCap):
                if preset.exceeded_by(value):
                    conflicts.append(f"{name}={value!r} (smoke caps it at {preset.limit})")
            elif (tuple(value) if isinstance(value, list) else value) != preset:
                conflicts.append(f"{name}={value!r} (smoke sets {preset!r})")
        if conflicts:
            raise ValueError(
                f"smoke would override {', '.join(conflicts)}; drop smoke or these values"
            )

    def apply_smoke(self, params: Dict[str, Any]) -> None:
        """Put :attr:`smoke_preset` in place when ``params`` asks for smoke.

        ``normalize`` calls this itself, at the point its derivations expect:
        traffic, for one, puts its smoke workload in only after validating
        the requested specs, so the reported spec string stays verbatim.
        """
        if not params.get("smoke"):
            return
        for name, preset in self.smoke_preset.items():
            params[name] = preset.lower(params[name]) if isinstance(preset, SmokeCap) else preset

    def normalize(self, params: Dict[str, Any]) -> Dict[str, Any]:
        """Derive internal parameters (seed tuples, preset grids) in place."""
        return params

    def plan(self, overrides: Mapping[str, Any]) -> Tuple[Dict[str, Any], Any]:
        """Resolve, normalize and build the grid: every check an input can
        fail, before any trial runs.  Returns ``(params, grid)``."""
        params = self.normalize(self.resolve_params(overrides))
        return params, self.build_grid(params)

    # -- the three hooks ----------------------------------------------------

    def build_grid(self, params: Dict[str, Any]) -> List:
        """Resolved parameters -> the list of work units."""
        raise NotImplementedError

    def execute(self, grid, runtime: RuntimeOptions) -> List:
        """Run the grid, one outcome per unit.  Default: the parallel runtime layer."""
        # Imported here: repro.runtime.sweep imports the experiment configs.
        from repro.runtime.sweep import SweepRunner

        runner = SweepRunner(n_workers=runtime.workers, cache=runtime.cache)
        return runner.run_with_report(grid, on_result=runtime.on_result).outcomes

    def execute_in_process(self, grid, runtime: RuntimeOptions, work) -> List:
        """``work(**unit)`` for each grid unit, in order, in this process.

        The ``execute`` of the in-process experiments (classical,
        scaling): each outcome is reported through ``runtime.on_result`` as
        it lands, never as cached.
        """
        outcomes = []
        for index, unit in enumerate(grid):
            outcomes.append(work(**unit))
            if runtime.on_result is not None:
                runtime.on_result(index, outcomes[-1], False)
        return outcomes

    def reduce(self, outcomes, params: Dict[str, Any]) -> ExperimentResult:
        """Fold the executed outcomes into the experiment's result."""
        raise NotImplementedError

    # -- entry point --------------------------------------------------------

    def run(self, *, runtime: Optional[RuntimeOptions] = None, **overrides) -> ExperimentResult:
        """Run the experiment: resolve params, build, execute, reduce."""
        with span("experiment.run", experiment=self.name):
            params, grid = self.plan(overrides)
            outcomes = self.execute(grid, runtime or RuntimeOptions())
            with span("experiment.reduce", experiment=self.name):
                return self.reduce(outcomes, params)
