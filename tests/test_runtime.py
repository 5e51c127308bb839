"""Tests for the parallel experiment runtime (repro.runtime)."""

from __future__ import annotations

import math
from dataclasses import fields
from multiprocessing.reduction import ForkingPickler

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure4 import figure4_configs
from repro.runtime import RandomStreams, SweepRunner, derive_seed, seed_grid, trial_seed
from repro.runtime.sweep import default_workers


def _tiny_configs(n_requests: int = 8):
    """A small but non-trivial sweep grid (4 cells, two topologies, two seeds)."""
    return figure4_configs(
        n_nodes=9,
        distillation_values=(1.0,),
        topologies=("cycle", "grid"),
        seeds=(1, 2),
        n_requests=n_requests,
        n_consumer_pairs=5,
    )


def _fingerprint(outcome):
    """Every numeric field that could reveal a determinism break.

    NaN (a legal starvation_ratio when nothing starves) is mapped to None so
    fingerprints stay comparable across pickle round-trips.
    """
    def denan(value):
        return None if isinstance(value, float) and math.isnan(value) else value

    return tuple(
        denan(field)
        for field in (
        outcome.config,
        outcome.topology_name,
        outcome.rounds,
        outcome.swaps_performed,
        outcome.requests_satisfied,
        outcome.pairs_generated,
        outcome.pairs_consumed,
        outcome.pairs_remaining,
        outcome.overhead_exact,
        outcome.overhead_paper,
        outcome.mean_waiting_rounds,
            outcome.starvation_ratio,
            tuple(sorted(outcome.swaps_by_node.items())),
        )
    )


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "demand") == derive_seed(42, "demand")

    def test_different_names_differ(self):
        assert derive_seed(42, "demand") != derive_seed(42, "topology")

    def test_different_roots_differ(self):
        assert derive_seed(1, "demand") != derive_seed(2, "demand")

    def test_range(self):
        for seed in (0, 1, 2**31, 2**62):
            value = derive_seed(seed, "x")
            assert 0 <= value < 2**63

    def test_stable_value(self):
        # Guards against accidental changes to the derivation scheme, which
        # would silently change every experiment's workload.
        assert derive_seed(0, "demand") == 6040604234738214580
        assert isinstance(derive_seed(0, "demand"), int)


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(7).get("x").integers(0, 1000, size=10)
        b = RandomStreams(7).get("x").integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_different_streams_independent(self):
        streams = RandomStreams(7)
        a = streams.get("a").integers(0, 1000, size=20)
        b = streams.get("b").integers(0, 1000, size=20)
        assert not np.array_equal(a, b)

    def test_stream_is_seeded_by_derive_seed(self):
        expected = np.random.default_rng(derive_seed(5, "x")).random()
        assert RandomStreams(5).get("x").random() == expected

    def test_get_returns_same_generator(self):
        streams = RandomStreams(0)
        assert streams.get("x") is streams.get("x")

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            RandomStreams("seed")  # type: ignore[arg-type]

    def test_different_roots_differ(self):
        a = RandomStreams(1).get("x").integers(0, 2**31, size=10)
        b = RandomStreams(2).get("x").integers(0, 2**31, size=10)
        assert not np.array_equal(a, b)

    def test_draws_on_one_stream_leave_another_unperturbed(self):
        untouched = RandomStreams(7).get("b").random(5)
        streams = RandomStreams(7)
        streams.get("a").random(100)
        assert np.array_equal(streams.get("b").random(5), untouched)


class TestSeeding:
    def test_trial_seed_deterministic_and_distinct(self):
        seeds = seed_grid(master_seed=7, n_trials=100)
        assert seeds == seed_grid(master_seed=7, n_trials=100)
        assert len(set(seeds)) == 100
        assert all(0 <= seed < 2**63 for seed in seeds)

    def test_trial_seed_depends_on_master_seed_and_index(self):
        assert trial_seed(1, 0) != trial_seed(2, 0)
        assert trial_seed(1, 0) != trial_seed(1, 1)

    def test_trial_seed_is_the_named_trial_stream_seed(self):
        assert trial_seed(42, 3) == derive_seed(42, "trial-3") == 1751747333786045452

    def test_trial_seed_rejects_negative_index(self):
        with pytest.raises(ValueError):
            trial_seed(1, -1)

    def test_seed_grid_is_the_trial_seeds_in_index_order(self):
        assert seed_grid(9, 4) == [trial_seed(9, index) for index in range(4)]

    def test_seed_grid_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            seed_grid(1, 0)

    def test_seeds_take_no_salt(self):
        with pytest.raises(TypeError):
            trial_seed(1, 0, salt="x")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            seed_grid(1, 2, salt="x")  # type: ignore[call-arg]


class TestSweepRunner:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SweepRunner(n_workers=0)

    def test_empty_sweep(self):
        assert SweepRunner(n_workers=1).run([]) == []

    def test_outcomes_in_config_order(self):
        configs = _tiny_configs()
        outcomes = SweepRunner().run(configs)
        assert [outcome.config for outcome in outcomes] == configs

    def test_parallel_matches_sequential_bit_for_bit(self):
        """The headline guarantee: n_workers=4 == n_workers=1, exactly."""
        configs = _tiny_configs()
        sequential = SweepRunner(n_workers=1).run(configs)
        parallel = SweepRunner(n_workers=4).run(configs)
        assert [_fingerprint(o) for o in parallel] == [_fingerprint(o) for o in sequential]

    def test_configs_differing_in_one_field_are_separate_cells(self, monkeypatch):
        """The dedupe keys on config equality: configs differing only in
        seed, distillation, scenario or scenario parameter are each
        computed, never merged into one cell."""
        from repro.runtime import sweep

        config = _tiny_configs()[0]
        variants = [
            config,
            config.with_(seed=999),
            config.with_(distillation=3.0),
            config.with_(scenario="link-churn"),
            config.with_(scenario="link-churn:period=7"),
        ]
        assert all(field.compare and field.hash is None for field in fields(ExperimentConfig))
        computed = []

        def counting_trial(task):
            computed.append(task[1])
            return original(task)

        original = sweep._compute_trial
        monkeypatch.setattr(sweep, "_compute_trial", counting_trial)
        outcomes = SweepRunner(n_workers=1).run(variants)
        assert computed == variants
        assert [outcome.config for outcome in outcomes] == variants

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_workers() == 3
        monkeypatch.setenv("REPRO_WORKERS", "zero")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.setenv("REPRO_WORKERS", "-1")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.delenv("REPRO_WORKERS")
        assert default_workers() >= 1

    def test_configs_are_picklable_for_spawn(self):
        """spawn-safety precondition: configs survive the pool's pickler."""
        for config in _tiny_configs():
            assert ForkingPickler.loads(ForkingPickler.dumps(config)) == config


class TestOnResultCallback:
    """The per-cell ``on_result`` hook the serve daemon's progress spine uses."""

    def test_callback_sees_every_cell_in_config_order(self):
        configs = _tiny_configs()
        calls = []
        SweepRunner(n_workers=1).run(configs, on_result=lambda i, o: calls.append(i))
        assert calls == [0, 1, 2, 3]

    def test_callback_outcomes_match_the_returned_ones(self):
        configs = _tiny_configs()
        seen = {}
        outcomes = SweepRunner(n_workers=1).run(
            configs, on_result=lambda i, o: seen.setdefault(i, o)
        )
        assert sorted(seen) == list(range(len(configs)))
        for index, outcome in seen.items():
            assert _fingerprint(outcome) == _fingerprint(outcomes[index])

    def test_repeated_configs_are_computed_once(self, monkeypatch):
        """A config repeated in the grid runs once; every copy still gets its
        own outcome and its own callback."""
        from repro.runtime import sweep

        configs = _tiny_configs()
        computed = []

        def counting_trial(task):
            computed.append(task)
            return original(task)

        original = sweep._compute_trial
        monkeypatch.setattr(sweep, "_compute_trial", counting_trial)
        grid = [configs[0], configs[1], configs[0], configs[2], configs[1], configs[0]]
        calls = []
        outcomes = SweepRunner(n_workers=1).run(grid, on_result=lambda i, o: calls.append(i))
        # Each distinct config runs once, numbered in grid order.
        assert computed == [(0, configs[0]), (1, configs[1]), (2, configs[2])]
        assert sorted(calls) == list(range(len(grid)))
        assert outcomes[0] is not outcomes[2]
        for index, config in enumerate(grid):
            assert _fingerprint(outcomes[index]) == _fingerprint(outcomes[grid.index(config)])

    def test_callback_abort_stops_the_sweep(self, monkeypatch):
        """An exception from the callback (the daemon's cancel/timeout path)
        propagates out of the sweep, and no cell after it is computed."""
        from repro.runtime import sweep

        configs = _tiny_configs()
        computed = []

        def counting_trial(task):
            computed.append(task[0])
            return original(task)

        original = sweep._compute_trial
        monkeypatch.setattr(sweep, "_compute_trial", counting_trial)

        class Abort(Exception):
            pass

        def on_result(index, outcome):
            if index == 1:
                raise Abort

        with pytest.raises(Abort):
            SweepRunner(n_workers=1).run(configs, on_result=on_result)
        assert computed == [0, 1]

    def test_callback_fires_in_pool_mode_in_config_order(self):
        configs = _tiny_configs()
        calls = []
        outcomes = SweepRunner(n_workers=2).run(configs, on_result=lambda i, o: calls.append(i))
        assert calls == [0, 1, 2, 3]
        assert len(outcomes) == len(configs)
