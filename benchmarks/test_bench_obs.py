"""Benchmarks pinning the telemetry layer's overhead budget.

The observability contract has a perf clause: spans are cheap enough to
leave on for real runs (< 5% on an instrumented trial) and free when
disabled (the default) -- ``span()`` then returns a shared no-op context
manager, so a disabled call is one truthiness check plus a dict lookup
that never happens.  These tests measure both sides of that promise.
"""

from __future__ import annotations

import statistics
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_trial
from repro.obs import spans as spans_mod
from repro.obs.spans import SPAN_BUFFER, enable, span

# Large enough that per-span cost is amortized over real simulation work,
# the regime the < 5% budget is about (smoke-sized trials finish in
# microseconds and would measure noise, not overhead).
TRIAL = ExperimentConfig(
    topology="cycle", n_nodes=25, n_consumer_pairs=35, n_requests=50
)


def test_enabled_span_overhead_under_five_percent():
    """A fully instrumented trial costs < 5% over the same trial untracked.

    Plain and instrumented trials are timed in alternation and the ratio
    is the median over the twenty-five adjacent (plain, instrumented)
    pairs: the two trials of a pair run under the same machine load, so a
    change in load, between blocks of trials or from one trial to the
    next, cancels out of each pair's ratio.  Each trial is timed on this
    process's CPU clock, so time the process spends descheduled while
    other processes run is not counted against either side.
    """
    samples = {False: [], True: []}
    try:
        for repeat in range(27):
            for enabled in samples:
                enable(enabled)
                start = time.process_time()
                run_trial(TRIAL)
                SPAN_BUFFER.clear()
                elapsed = time.process_time() - start
                if repeat >= 2:  # the first two rounds are the warmup
                    samples[enabled].append(elapsed)
    finally:
        enable(False)
        SPAN_BUFFER.clear()
    disabled_seconds = statistics.median(samples[False])
    enabled_seconds = statistics.median(samples[True])

    ratio = statistics.median(
        enabled / disabled for disabled, enabled in zip(samples[False], samples[True])
    )
    print(
        f"\nobs overhead: disabled {disabled_seconds * 1e3:.2f} ms, "
        f"enabled {enabled_seconds * 1e3:.2f} ms, ratio {ratio:.3f}"
    )
    assert ratio < 1.05


def test_disabled_span_is_a_shared_noop():
    """With telemetry off every span() call returns the same no-op object,
    so the disabled path allocates nothing."""
    enable(False)
    assert span("trial.run") is span("trial.topology") is spans_mod._NOOP


def test_disabled_span_call_is_nanoseconds(median_time):
    """The per-call cost of a disabled span is sub-microsecond -- the
    'near zero when off' half of the overhead budget."""
    enable(False)
    calls = 100_000

    def loop():
        for _ in range(calls):
            with span("trial.balance"):
                pass

    seconds = median_time(loop, repeats=5, warmup=1)
    per_call = seconds / calls
    print(f"\ndisabled span: {per_call * 1e9:.0f} ns/call")
    assert per_call < 2e-6
    assert len(SPAN_BUFFER) == 0
