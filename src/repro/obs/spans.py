"""The span API: nestable wall-clock timing with near-zero disabled cost.

A *span* is one timed region of the trial / sweep / serve lifecycle::

    with span("trial.balance", rounds=120):
        ...

Spans nest (the context manager maintains a per-thread stack, so a child
records its parent's id and depth) and are process-safe: every process
appends to its own module-global :data:`SPAN_BUFFER`, and the worker pool
(:mod:`repro.runtime.pool`) ships each task's spans back to the parent
alongside its result, so a multi-process run still yields one merged
stream.

Telemetry is **observation-only** and off by default.  The master switch is
the ``REPRO_TELEMETRY`` environment variable (or :func:`enable` /
:func:`disable`, which also set the variable for child processes; the
worker pool hands the current switch to every task it runs, so warm
workers follow it too).  While disabled, :func:`span` returns a shared
no-op context manager -- no allocation, no clock read, no buffer append --
which is what keeps the disabled overhead unmeasurable
(``benchmarks/test_bench_obs.py`` holds that floor).

Nothing here ever feeds back into results: span data lives outside
:class:`~repro.experiments.config.ExperimentConfig`, outside the result
cache's content address, and outside every RNG stream, so results are
byte-identical with telemetry on or off (``tests/test_obs_determinism.py``
pins this).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Environment variable switching telemetry on ("1") and off (unset/"0").
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Default bound on buffered spans per process (oldest dropped, counted).
DEFAULT_SPAN_CAPACITY = 100_000

#: Every span name the instrumentation emits, in lifecycle order.  The docs
#: gate (tests/test_docs.py) requires each one to appear as a backticked
#: token in the documentation.
SPAN_NAMES: Tuple[str, ...] = (
    # experiment layer (repro.experiments.api)
    "experiment.run",
    "experiment.reduce",
    # sweep layer (repro.runtime.sweep)
    "sweep.run",
    "sweep.trial",
    # trial lifecycle (repro.experiments.runner)
    "trial.run",
    "trial.topology",
    "trial.workload",
    "trial.routing",
    "trial.rounds",
    # per-phase aggregates (repro.protocols.base, cumulative over rounds)
    "trial.generation",
    "trial.balance",
    "trial.consumption",
    "trial.bookkeeping",
    "trial.reduce",
    # one LP objective solve (repro.experiments.lp_validation)
    "lp.solve",
    # serve job stages (repro.serve.worker)
    "serve.job.queued",
    "serve.job.running",
)

#: Anchor translating ``perf_counter`` readings to Unix epoch seconds.  One
#: snapshot per process keeps every span start monotonic *and* comparable
#: across the parent and its sweep workers.
_EPOCH = time.time() - time.perf_counter()


def _now_unix(perf: float) -> float:
    return _EPOCH + perf


@dataclass(frozen=True)
class SpanRecord:
    """One finished span (what the buffer stores and the JSONL sink emits)."""

    name: str
    start: float  #: Unix epoch seconds.
    duration: float  #: Wall-clock seconds.
    pid: int
    thread: int
    span_id: int
    parent_id: Optional[int]
    depth: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """The JSONL representation (``type: span``)."""
        return {
            "type": "span",
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "thread": self.thread,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "attrs": self.attrs,
        }


class SpanBuffer:
    """A bounded, lock-protected list of finished spans for one process."""

    def __init__(self, capacity: int = DEFAULT_SPAN_CAPACITY):
        if capacity < 1:
            raise ValueError(f"span buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._records: List[SpanRecord] = []
        self._lock = threading.Lock()

    def append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
            if len(self._records) > self.capacity:
                overflow = len(self._records) - self.capacity
                del self._records[:overflow]
                self.dropped += overflow

    def extend(self, records: Iterable[SpanRecord]) -> None:
        """Merge records shipped back from a worker process."""
        for record in records:
            self.append(record)

    def snapshot(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def drain(self) -> List[SpanRecord]:
        """Return and remove every buffered span (drop count is kept)."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


#: The process-global buffer every enabled span lands in.
SPAN_BUFFER = SpanBuffer()

_ids = itertools.count(1)
_stack = threading.local()

_enabled = os.environ.get(TELEMETRY_ENV, "").strip() not in ("", "0", "false", "False")


def telemetry_enabled() -> bool:
    """Whether spans are being recorded in this process."""
    return _enabled


def enable(on: bool = True) -> None:
    """Switch telemetry on (or off) for this process *and* its pool workers.

    Pool tasks carry the switch with them; the decision is also mirrored
    into :data:`TELEMETRY_ENV` for any other child process, which reads
    the environment on import.
    """
    global _enabled
    _enabled = bool(on)
    if _enabled:
        os.environ[TELEMETRY_ENV] = "1"
    else:
        os.environ.pop(TELEMETRY_ENV, None)


def disable() -> None:
    """Switch telemetry off (see :func:`enable`)."""
    enable(False)


def _current_stack() -> List[Tuple[int, int]]:
    stack = getattr(_stack, "frames", None)
    if stack is None:
        stack = _stack.frames = []
    return stack


class _NoopSpan:
    """The shared disabled span: entering and exiting does nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    """An enabled span: times the block and appends one :class:`SpanRecord`."""

    __slots__ = ("name", "attrs", "span_id", "_start_perf")

    def __init__(self, name: str, attrs: Dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.span_id = next(_ids)
        self._start_perf = 0.0

    def __enter__(self) -> "_Span":
        stack = _current_stack()
        depth = len(stack)
        stack.append((self.span_id, depth))
        self._start_perf = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        end_perf = time.perf_counter()
        stack = _current_stack()
        stack.pop()
        parent_id = stack[-1][0] if stack else None
        SPAN_BUFFER.append(
            SpanRecord(
                name=self.name,
                start=_now_unix(self._start_perf),
                duration=end_perf - self._start_perf,
                pid=os.getpid(),
                thread=threading.get_ident(),
                span_id=self.span_id,
                parent_id=parent_id,
                depth=len(stack),
                attrs=self.attrs,
            )
        )
        return False


def span(name: str, **attrs: Any):
    """A context manager timing the enclosed block as one span.

    While telemetry is disabled this returns a shared no-op object, so an
    instrumented hot path costs one truthiness check and one attribute
    lookup per call -- nothing allocates and no clock is read.
    """
    if not _enabled:
        return _NOOP
    return _Span(name, attrs)


def emit(name: str, start: float, duration: float, **attrs: Any) -> None:
    """Record an already-measured interval as a span.

    For intervals that cannot wrap a ``with`` block: the cross-thread
    ``serve.job.queued`` wait (measured between a push on one thread and a
    pop on another) and the per-phase aggregates the round loop accumulates
    (one synthetic span per phase per trial, laid back-to-back).  ``start``
    is in ``time.perf_counter()`` terms; the record stores epoch seconds.
    No-op while telemetry is disabled.
    """
    if not _enabled:
        return
    stack = _current_stack()
    parent_id = stack[-1][0] if stack else None
    SPAN_BUFFER.append(
        SpanRecord(
            name=name,
            start=_now_unix(start),
            duration=duration,
            pid=os.getpid(),
            thread=threading.get_ident(),
            span_id=next(_ids),
            parent_id=parent_id,
            depth=len(stack),
            attrs=attrs,
        )
    )
