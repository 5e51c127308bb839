"""The parallel sweep runner.

:class:`SweepRunner` takes a flat list of
:class:`~repro.experiments.config.ExperimentConfig` cells and produces one
:class:`~repro.experiments.config.TrialOutcome` per cell, in the same
order, by combining three mechanisms:

1. **Cache lookup** -- cells whose content address is already in the
   :class:`~repro.runtime.cache.ResultCache` are not recomputed at all,
   and of the rest each distinct config is computed once (a grid may hold
   the same cell several times; its copies get a copy of the outcome).
2. **Process fan-out** -- the distinct cells are mapped across the
   process-wide ``spawn`` pool of :mod:`repro.runtime.pool` (``spawn`` is
   the one start method that is safe on every platform and immune to
   fork-time state leakage: inherited RNG state, open file handles, thread
   locks).  The pool starts on the first multi-cell sweep and stays warm
   for every later one in the process.
3. **Deterministic merge** -- outcomes are reassembled into config order,
   so the caller cannot observe worker count, scheduling, or cache state.

Because :func:`repro.experiments.runner.run_trial` derives every random
draw from ``config.seed`` alone, the map is embarrassingly parallel and the
merged result is bit-identical for any ``n_workers``.  The default
:meth:`repro.experiments.api.Experiment.execute` is its one caller.
"""

from __future__ import annotations

import copy
import os
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.experiments.config import ExperimentConfig, TrialOutcome
from repro.obs.spans import span, telemetry_enabled
from repro.runtime.cache import ResultCache

#: Environment variable supplying the default worker count.
WORKERS_ENV = "REPRO_WORKERS"


def default_workers() -> int:
    """The default worker count: ``$REPRO_WORKERS``, else the CPUs this
    process may run on (its affinity mask, else the CPU count)."""
    value = os.environ.get(WORKERS_ENV, "").strip()
    if value:
        try:
            workers = int(value)
        except ValueError as error:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {value!r}") from error
        if workers <= 0:
            raise ValueError(f"{WORKERS_ENV} must be positive, got {workers}")
        return workers
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """A worker count as given, or :func:`default_workers` for ``None``;
    a count below 1 raises ``ValueError``."""
    resolved = default_workers() if workers is None else int(workers)
    if resolved <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    return resolved


def _compute_trial(config: ExperimentConfig) -> TrialOutcome:
    """Worker entry point: run one trial (top-level so ``spawn`` can pickle it)."""
    # Imported lazily: repro.experiments.runner itself delegates sweeps to
    # this module, and a module-level import would make the cycle hard.
    from repro.experiments.runner import run_trial

    return run_trial(config)


@dataclass
class SweepReport:
    """The outcomes of one sweep plus where each of them came from."""

    outcomes: List[TrialOutcome] = field(default_factory=list)
    n_cached: int = 0
    n_computed: int = 0

    @property
    def total(self) -> int:
        return len(self.outcomes)


class SweepRunner:
    """Runs sweep cells through the cache and a spawn-safe process pool.

    Parameters
    ----------
    n_workers:
        Process count for the compute phase.  ``None`` (the default) uses
        :func:`default_workers`: ``$REPRO_WORKERS``, or every CPU this
        process may run on.  ``1`` runs in-process with zero
        multiprocessing overhead, and so does a sweep of one cell.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching entirely.
    chunksize:
        Cells handed to a worker at a time.  The default of 1 maximises
        load balance, which matters because trial runtimes vary by orders
        of magnitude across a sweep grid.
    """

    def __init__(
        self,
        n_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        chunksize: int = 1,
    ):
        if chunksize <= 0:
            raise ValueError(f"chunksize must be positive, got {chunksize}")
        self.n_workers = resolve_workers(n_workers)
        self.cache = cache
        self.chunksize = chunksize

    def run_with_report(
        self,
        configs: Sequence[ExperimentConfig],
        on_result: Optional[Callable[[int, TrialOutcome, bool], None]] = None,
    ) -> SweepReport:
        """Run every cell, skipping cached ones, and report provenance counts.

        ``on_result(index, outcome, cached)`` is invoked once per cell as
        its outcome becomes available -- cache hits first, then computed
        cells in config order (the pool path streams them as they finish),
        each copy of a config right after the first cell that holds it.
        Copies count as computed cells.
        It is the hook long-running callers (the serve daemon's worker
        pool) use to report progress or abort: an exception raised from the
        callback propagates out of the sweep after the cell's outcome has
        already been written through the cache, so an aborted sweep never
        loses completed work.
        """
        configs = list(configs)
        report = SweepReport()
        slots: List[Optional[TrialOutcome]] = [None] * len(configs)

        with span("sweep.run", cells=len(configs), workers=self.n_workers):
            pending: List[int] = []
            for index, config in enumerate(configs):
                cached = self.cache.get(config) if self.cache is not None else None
                if cached is not None:
                    slots[index] = cached
                    report.n_cached += 1
                    if on_result is not None:
                        on_result(index, cached, True)
                else:
                    pending.append(index)

            # Each distinct config is computed once; later equal cells copy it.
            copies: Dict[ExperimentConfig, List[int]] = {}
            for index in pending:
                copies.setdefault(configs[index], []).append(index)
            distinct = [indices[0] for indices in copies.values()]
            with closing(self._compute([configs[i] for i in distinct])) as computed:
                for first, outcome in zip(distinct, computed):
                    if self.cache is not None:
                        self.cache.put(configs[first], outcome)
                    for index in copies[configs[first]]:
                        slots[index] = outcome if index == first else copy.deepcopy(outcome)
                        report.n_computed += 1
                        if on_result is not None:
                            on_result(index, slots[index], False)

        unfilled = [index for index, slot in enumerate(slots) if slot is None]
        if unfilled:  # the pool yields everything or raises; a hole is a bug here
            raise RuntimeError(f"sweep left cells {unfilled} without an outcome")
        report.outcomes = slots
        if telemetry_enabled():
            from repro.obs.telemetry import TELEMETRY

            TELEMETRY.metrics.counter("sweep.cells", "sweep cells requested").increment(
                report.total
            )
            TELEMETRY.metrics.counter("sweep.cached", "cells answered from cache").increment(
                report.n_cached
            )
            TELEMETRY.metrics.counter("sweep.computed", "cells actually computed").increment(
                report.n_computed
            )
        return report

    def _compute(self, configs: List[ExperimentConfig]) -> Iterator[TrialOutcome]:
        # In process (one cell or one worker) each trial gets its own
        # ``sweep.trial`` span, which the pool path cannot time.
        if self.n_workers == 1 or len(configs) == 1:
            for index, config in enumerate(configs):
                with span("sweep.trial", index=index):
                    outcome = _compute_trial(config)
                yield outcome
            return
        # Imported here: the pool module stays off the start-up path.
        from repro.runtime.pool import ordered_map

        with closing(ordered_map(_compute_trial, configs, self.n_workers, self.chunksize)) as outcomes:
            yield from outcomes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepRunner(n_workers={self.n_workers}, cache={self.cache!r})"
