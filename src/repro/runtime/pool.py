"""The process-wide worker pool every parallel grid runs on.

One ``spawn`` :class:`~concurrent.futures.ProcessPoolExecutor` per
interpreter, shared by every :class:`~repro.runtime.sweep.SweepRunner`
sweep and by the ``lp`` experiment's objective solves.  Its lifetime:

* **Lazy.**  Nothing spawns at import, and a registry lookup does not
  even import this module; the pool is created by the first
  :func:`ordered_map` with more than one task and more than one worker,
  and it stays warm for every later run in the process, so the
  interpreter start and the ``repro`` imports in each worker are paid
  once, not once per run.
* **Sized by the request.**  The pool holds at most ``workers`` processes
  (:func:`~repro.runtime.sweep.default_workers` -- ``$REPRO_WORKERS`` or
  the CPUs this process may run on -- unless the caller asks for another
  count, which rebuilds it at that size).  Processes start as tasks are
  queued, never more than the tasks queued.
* **Self-healing.**  A worker that dies (OOM killer, ``kill -9``) breaks
  the pool: the run it served raises :class:`PoolWorkerDied`, and the next
  run starts a fresh pool.  A run that finds the pool broken before any
  of its results came back (a worker died between runs) starts over once
  on a fresh pool.
* **Bounded by its interpreter.**  The pool is shut down at interpreter
  exit, and each worker exits on its own if the parent dies without
  shutting it down.

Tasks are pure functions of their inputs, so :func:`ordered_map` yields
results in input order and they merge byte-identically for any worker
count.  The parent's telemetry switch travels with each task, and the
spans a worker records come back with its result into the parent's
:data:`~repro.obs.spans.SPAN_BUFFER`.
"""

from __future__ import annotations

import atexit
import functools
import os
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence

from repro.obs import spans
from repro.runtime.sweep import resolve_workers

# The multiprocessing machinery is imported where a pool is made or met:
# a run that stays in this process (one worker or one task, as every
# `repro serve` job does) never loads it.
if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class PoolWorkerDied(RuntimeError):
    """A pool worker died while a run was waiting on it."""


_lock = threading.RLock()
_executor: Optional["ProcessPoolExecutor"] = None
_size = 0


def _exit_with_parent(sentinel: int) -> None:
    from multiprocessing.connection import wait

    wait([sentinel])
    os._exit(1)


def _init_worker() -> None:
    """Worker start-up: exit as soon as the parent process is gone."""
    import multiprocessing

    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(target=_exit_with_parent, args=(parent.sentinel,), daemon=True).start()


def _run_task(fn: Callable[[Any], Any], telemetry: bool, item: Any):
    """Worker side of one task: ``fn(item)`` under the parent's telemetry switch."""
    spans.enable(telemetry)
    if not telemetry:
        return fn(item), ()
    spans.SPAN_BUFFER.clear()
    result = fn(item)
    return result, tuple(spans.SPAN_BUFFER.drain())


def _submit(task: Callable[[Any], Any], items: Sequence[Any], workers: int):
    """Queue every item on the shared pool, sized ``workers``; returns the
    pool and the ordered result iterator.

    ``Executor.map`` submits every task before it returns, and it does so
    under the lock, so a caller asking for another size cannot shut the
    pool down between this run's lookup and its submissions: a rebuild only
    ever falls between two runs' submissions.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    global _executor, _size
    with _lock:
        if _executor is None or _size != workers:
            if _executor is not None:
                # Work already queued on the old pool still completes.
                _executor.shutdown(wait=False)
            _executor = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_worker,
            )
            _size = workers
        executor = _executor
        try:
            # One task per chunk (map's default): trial runtimes vary by
            # orders of magnitude across a grid, so that balances best.
            return executor, executor.map(task, items)
        except BrokenProcessPool:  # it broke before this run queued anything
            _discard(executor)
            raise


def _discard(executor: "ProcessPoolExecutor") -> None:
    """Forget a broken pool, so the next run starts a fresh one."""
    global _executor, _size
    with _lock:
        if _executor is executor:
            _executor, _size = None, 0
    executor.shutdown(wait=False, cancel_futures=True)


def _shutdown() -> None:
    """Stop the shared pool's workers (a later run starts a new pool)."""
    global _executor, _size
    with _lock:
        executor, _executor, _size = _executor, None, 0
    if executor is not None:
        executor.shutdown(wait=True, cancel_futures=True)


atexit.register(_shutdown)


def ordered_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    workers: Optional[int] = None,
) -> Iterator[Any]:
    """``fn(item)`` for every item, yielded in input order.

    ``workers`` is resolved by :func:`~repro.runtime.sweep.resolve_workers`
    (``None`` is the default count; a count below 1 raises ``ValueError``
    here, before anything runs).  One task or one worker runs in this
    process.  Otherwise every item is queued on the shared pool at once
    (``fn`` must be a module-level function, so ``spawn`` can pickle it)
    and results stream back in order as they finish.  Close the iterator
    (``contextlib.closing``) when stopping early: that cancels the tasks
    not yet started, so the next run is not queued behind them.
    """
    workers = resolve_workers(workers)
    if workers == 1 or len(items) <= 1:
        return (fn(item) for item in items)
    return _pooled_map(fn, items, workers)


def _pooled_map(fn: Callable[[Any], Any], items: Sequence[Any], workers: int) -> Iterator[Any]:
    from concurrent.futures.process import BrokenProcessPool

    task = functools.partial(_run_task, fn, spans.telemetry_enabled())
    yielded = False
    for may_retry in (True, False):
        executor = results = None
        try:
            executor, results = _submit(task, items, workers)
            for result, records in results:
                spans.SPAN_BUFFER.extend(records)
                yielded = True
                yield result
            return
        except BrokenProcessPool as error:
            if executor is not None:  # else _submit discarded it already
                _discard(executor)
            # A pool that broke before this run got anything back (a worker
            # died between runs) is replaced, and the run starts over once.
            if may_retry and not yielded:
                continue
            raise PoolWorkerDied(
                f"a worker process died while running {getattr(fn, '__name__', fn)!r}; "
                "the next run starts a fresh pool"
            ) from error
        finally:
            if results is not None:
                results.close()
