"""The parallel sweep runner.

:class:`SweepRunner` takes a flat list of
:class:`~repro.experiments.config.ExperimentConfig` cells and produces one
:class:`~repro.experiments.config.TrialOutcome` per cell, in the same
order, by combining three mechanisms:

1. **Dedupe** -- each distinct config is computed once (a grid may hold
   the same cell several times; its copies get a copy of the outcome).
2. **Process fan-out** -- the distinct cells are mapped with
   :func:`repro.runtime.pool.ordered_map`: in this process for one worker
   or one cell, else across the process-wide ``spawn`` pool (``spawn`` is
   the one start method that is safe on every platform and immune to
   fork-time state leakage: inherited RNG state, open file handles, thread
   locks).  The pool starts on the first multi-cell sweep and stays warm
   for every later one in the process.
3. **Deterministic merge** -- outcomes are reassembled into config order,
   so the caller cannot observe worker count or scheduling.

Because :func:`repro.experiments.runner.run_trial` derives every random
draw from ``config.seed`` alone, the map is embarrassingly parallel and the
merged result is bit-identical for any ``n_workers``.  The default
:meth:`repro.experiments.api.Experiment.execute` is its one caller.
"""

from __future__ import annotations

import copy
import os
from contextlib import closing
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig, TrialOutcome
from repro.obs.spans import span, telemetry_enabled

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


def _compute_trial(task: Tuple[int, ExperimentConfig]) -> TrialOutcome:
    """Map task: run the distinct cell ``index`` under its ``sweep.trial``
    span (top-level so ``spawn`` can pickle it; a pool worker ships the
    span back with the outcome)."""
    # Imported lazily: repro.experiments.runner itself delegates sweeps to
    # this module, and a module-level import would make the cycle hard.
    from repro.experiments.runner import run_trial

    index, config = task
    with span("sweep.trial", index=index):
        return run_trial(config)


class SweepRunner:
    """Runs sweep cells, each distinct one once, through the worker pool.

    ``n_workers`` is the process count for the compute phase.  ``None``
    (the default) uses :func:`default_workers`: ``$REPRO_WORKERS``, or
    every CPU this process may run on.  ``1`` runs in-process with zero
    multiprocessing overhead, and so does a sweep of one cell.
    """

    def __init__(self, n_workers: Optional[int] = None):
        self.n_workers = resolve_workers(n_workers)

    def run(
        self,
        configs: Sequence[ExperimentConfig],
        on_result: Optional[Callable[[int, TrialOutcome], None]] = None,
    ) -> List[TrialOutcome]:
        """Every cell's outcome, in config order.

        ``on_result(index, outcome)`` is invoked once per cell as its
        outcome becomes available: in config order of the distinct cells
        (the pool path streams them as they finish), each copy of a config
        right after the first cell that holds it.  It is the hook
        long-running callers (the serve daemon's worker pool) use to report
        progress or abort: an exception raised from the callback propagates
        out of the sweep and cancels the cells not yet started.
        """
        # Imported here: the pool module stays off the start-up path.
        from repro.runtime.pool import ordered_map

        configs = list(configs)
        slots: List[Optional[TrialOutcome]] = [None] * len(configs)
        with span("sweep.run", cells=len(configs), workers=self.n_workers):
            # Each distinct config is computed once; later equal cells copy it.
            copies: Dict[ExperimentConfig, List[int]] = {}
            for index, config in enumerate(configs):
                copies.setdefault(config, []).append(index)
            tasks = list(enumerate(copies))
            with closing(ordered_map(_compute_trial, tasks, self.n_workers)) as computed:
                for indices, outcome in zip(copies.values(), computed):
                    for index in indices:
                        slots[index] = outcome if index == indices[0] else copy.deepcopy(outcome)
                        if on_result is not None:
                            on_result(index, slots[index])

        unfilled = [index for index, slot in enumerate(slots) if slot is None]
        if unfilled:  # the pool yields everything or raises; a hole is a bug here
            raise RuntimeError(f"sweep left cells {unfilled} without an outcome")
        if telemetry_enabled():
            from repro.obs.telemetry import TELEMETRY

            TELEMETRY.metrics.counter("sweep.cells", "sweep cells requested").increment(
                len(configs)
            )
        return slots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepRunner(n_workers={self.n_workers})"
