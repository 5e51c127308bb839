"""Telemetry-is-observation-only determinism suite.

The hard constraint of the telemetry layer: spans and metrics may read the
wall clock, but nothing they measure may enter an RNG stream or an
outcome.  These tests pin the contract from every angle -- experiment JSON
byte-identical with telemetry on and off and across worker counts, and
golden traces unchanged.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentConfig
from repro.obs import spans as spans_mod
from repro.runtime.sweep import SweepRunner


@pytest.fixture(autouse=True)
def _telemetry_off_after():
    """Every test here flips telemetry; always restore the disabled default."""
    yield
    spans_mod.enable(False)
    spans_mod.SPAN_BUFFER.clear()


def _figure4_json(capsys, telemetry_path=None) -> str:
    from repro.cli import main

    argv = ["figure4", "--smoke", "--format", "json"]
    if telemetry_path is not None:
        argv += ["--telemetry", str(telemetry_path)]
    assert main(argv) == 0
    return capsys.readouterr().out


def test_figure4_json_identical_with_and_without_telemetry(capsys, tmp_path):
    """The acceptance criterion: `figure4 --format json` is byte-identical
    whether or not a telemetry stream is recorded."""
    plain = _figure4_json(capsys)
    tracked = _figure4_json(capsys, telemetry_path=tmp_path / "telemetry.jsonl")
    assert tracked == plain


def test_sweep_outcomes_identical_across_telemetry_and_workers():
    """One grid, four executions: telemetry off/on x workers 1/2 must all
    produce identical outcomes (spans ride alongside, never inside)."""
    configs = [
        ExperimentConfig(
            topology="cycle", n_nodes=9, n_consumer_pairs=4, n_requests=6, seed=seed
        )
        for seed in range(3)
    ]

    def outcomes(workers: int):
        return [
            (o.rounds, o.swaps_performed, o.overhead_exact)
            for o in SweepRunner(n_workers=workers).run(configs)
        ]

    spans_mod.enable(False)
    baseline = outcomes(1)
    assert outcomes(2) == baseline
    spans_mod.enable(True)
    try:
        spans_mod.SPAN_BUFFER.clear()
        assert outcomes(1) == baseline
        assert len(spans_mod.SPAN_BUFFER) > 0  # telemetry was really on
        spans_mod.SPAN_BUFFER.clear()
        assert outcomes(2) == baseline
        # The spawn pool shipped worker spans back into the parent buffer.
        names = {record.name for record in spans_mod.SPAN_BUFFER.snapshot()}
        assert "trial.run" in names and "sweep.run" in names
    finally:
        spans_mod.enable(False)


def test_golden_trace_unchanged_by_telemetry():
    """The golden-trace bytes (every simulation event, in order) must be
    identical with telemetry recording around the run."""
    from test_golden_traces import record_canonical_trace

    spans_mod.enable(False)
    plain = record_canonical_trace("none")
    spans_mod.enable(True)
    try:
        spans_mod.SPAN_BUFFER.clear()
        tracked = record_canonical_trace("none")
    finally:
        spans_mod.enable(False)
    assert tracked == plain


def test_trial_outcome_fields_identical_with_telemetry():
    """Field-by-field: the dataclass produced with telemetry on equals the
    one produced with it off (config included, so cache keys match too)."""
    from dataclasses import asdict

    from repro.experiments.runner import run_trial

    config = ExperimentConfig(
        topology="random-grid", n_nodes=16, n_consumer_pairs=5, n_requests=8, seed=2
    )
    spans_mod.enable(False)
    plain = run_trial(config)
    spans_mod.enable(True)
    try:
        tracked = run_trial(config)
    finally:
        spans_mod.enable(False)
    assert asdict(tracked) == asdict(plain)
