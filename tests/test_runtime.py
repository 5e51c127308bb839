"""Tests for the parallel experiment runtime (repro.runtime)."""

from __future__ import annotations

import math
import pickle
import subprocess
import sys
import time

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figure4 import figure4_configs, run_figure4
from repro.runtime import (
    ResultCache,
    SweepRunner,
    atomic_write_bytes,
    code_version,
    config_digest,
    replicate_config,
    run_sweep,
    seed_grid,
    trial_seed,
)
from repro.runtime.seeding import replicate_grid
from repro.runtime.sweep import SweepReport, default_workers


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


class TestSeeding:
    def test_trial_seed_deterministic_and_distinct(self):
        seeds = seed_grid(master_seed=7, n_trials=100)
        assert seeds == seed_grid(master_seed=7, n_trials=100)
        assert len(set(seeds)) == 100
        assert all(0 <= seed < 2**63 for seed in seeds)

    def test_trial_seed_depends_on_master_seed_and_salt(self):
        assert trial_seed(1, 0) != trial_seed(2, 0)
        assert trial_seed(1, 0) != trial_seed(1, 1)
        assert trial_seed(1, 0, salt="a") != trial_seed(1, 0, salt="b")

    def test_trial_seed_rejects_negative_index(self):
        with pytest.raises(ValueError):
            trial_seed(1, -1)

    def test_replicate_config_assigns_derived_seeds(self):
        base = ExperimentConfig(topology="cycle", n_nodes=9, seed=0)
        replicas = replicate_config(base, 5, master_seed=42)
        assert len(replicas) == 5
        assert len({config.seed for config in replicas}) == 5
        assert all(config.topology == "cycle" for config in replicas)

    def test_replicate_grid_is_position_stable(self):
        base = ExperimentConfig(topology="cycle", n_nodes=9)
        grid = [base.with_(distillation=d) for d in (1.0, 2.0)]
        replicated = replicate_grid(grid, n_trials=3, master_seed=9)
        assert len(replicated) == 6
        # Cell 1's seeds do not depend on cell 0's existence beyond position.
        tail = replicate_grid(grid, n_trials=3, master_seed=9)[3:]
        assert [config.seed for config in replicated[3:]] == [config.seed for config in tail]


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _tiny_configs()[0]
        assert cache.get(config) is None
        assert cache.stats.misses == 1
        outcome = SweepRunner(n_workers=1).run([config])[0]
        cache.put(config, outcome)
        assert config in cache
        restored = cache.get(config)
        assert cache.stats.hits == 1
        assert _fingerprint(restored) == _fingerprint(outcome)

    def test_key_depends_on_every_config_field(self, tmp_path):
        config = _tiny_configs()[0]
        assert config_digest(config) == config_digest(config)
        assert config_digest(config) != config_digest(config.with_(seed=999))
        assert config_digest(config) != config_digest(config.with_(distillation=3.0))

    def test_key_depends_on_scenario(self, tmp_path):
        """Regression: two configs differing only in scenario must never
        share a cache entry -- a churn trial's outcome is not a static
        trial's outcome."""
        config = _tiny_configs()[0]
        churned = config.with_(scenario="link-churn")
        tuned = config.with_(scenario="link-churn:period=7")
        assert config_digest(config) != config_digest(churned)
        assert config_digest(churned) != config_digest(tuned)
        cache = ResultCache(tmp_path)
        outcome = SweepRunner(n_workers=1).run([config])[0]
        cache.put(config, outcome)
        assert config in cache
        assert churned not in cache
        assert cache.get(churned) is None, "scenario trials must not hit static entries"
        churned_outcome = SweepRunner(n_workers=1).run([churned])[0]
        cache.put(churned, churned_outcome)
        assert _fingerprint(cache.get(config)) == _fingerprint(outcome)
        assert _fingerprint(cache.get(churned)) == _fingerprint(churned_outcome)
        assert len(cache) == 2

    def test_key_depends_on_code_version(self, tmp_path):
        config = _tiny_configs()[0]
        assert config_digest(config, version="aaaa") != config_digest(config, version="bbbb")
        assert len(code_version()) == 16

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        config = _tiny_configs()[0]
        outcome = SweepRunner(n_workers=1).run([config])[0]
        cache.put(config, outcome)
        entry = next(tmp_path.glob("*.pkl"))
        entry.write_bytes(b"not a pickle")
        assert cache.get(config) is None
        # The poisoned entry was removed, so a re-put works.
        cache.put(config, outcome)
        assert cache.get(config) is not None

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        config = _tiny_configs()[0]
        outcome = SweepRunner(n_workers=1).run([config])[0]
        cache.put(config, outcome)
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_clear_removes_orphaned_tmp_files(self, tmp_path):
        """Regression: a writer killed before its atomic rename leaves a
        ``*.tmp`` file that ``clear()`` used to skip forever."""
        cache = ResultCache(tmp_path)
        config = _tiny_configs()[0]
        outcome = SweepRunner(n_workers=1).run([config])[0]
        cache.put(config, outcome)
        orphan = tmp_path / "tmpdead.tmp"
        orphan.write_bytes(b"half-written pickle")
        assert cache.clear() == 1  # one real entry...
        assert not orphan.exists()  # ...and the orphan is swept up too
        assert list(tmp_path.glob("*.tmp")) == []
        # The cache still works after the sweep.
        cache.put(config, outcome)
        assert cache.get(config) is not None


class TestSweepRunner:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            SweepRunner(n_workers=0)
        with pytest.raises(ValueError):
            SweepRunner(chunksize=0)

    def test_empty_sweep(self):
        report = SweepRunner(n_workers=1).run_with_report([])
        assert report.outcomes == [] and report.total == 0

    def test_outcomes_in_config_order(self):
        configs = _tiny_configs()
        outcomes = run_sweep(configs)
        assert [outcome.config for outcome in outcomes] == configs

    def test_parallel_matches_sequential_bit_for_bit(self):
        """The headline guarantee: n_workers=4 == n_workers=1, exactly."""
        configs = _tiny_configs()
        sequential = SweepRunner(n_workers=1).run(configs)
        parallel = SweepRunner(n_workers=4).run(configs)
        assert [_fingerprint(o) for o in parallel] == [_fingerprint(o) for o in sequential]

    def test_cached_rerun_recomputes_nothing(self, tmp_path):
        configs = _tiny_configs()
        cache = ResultCache(tmp_path)
        runner = SweepRunner(n_workers=1, cache=cache)
        first = runner.run_with_report(configs)
        assert first.n_computed == len(configs) and first.n_cached == 0
        second = runner.run_with_report(configs)
        assert second.n_computed == 0 and second.n_cached == len(configs)
        assert [_fingerprint(o) for o in second.outcomes] == [
            _fingerprint(o) for o in first.outcomes
        ]

    def test_partial_cache_only_computes_missing_cells(self, tmp_path):
        configs = _tiny_configs()
        cache = ResultCache(tmp_path)
        runner = SweepRunner(n_workers=1, cache=cache)
        runner.run([configs[0], configs[2]])
        report = runner.run_with_report(configs)
        assert report.n_cached == 2 and report.n_computed == 2

    def test_figure4_cached_rerun_is_free(self, tmp_path):
        """Acceptance criterion: a cached figure-4 re-run recomputes zero trials."""
        cache = ResultCache(tmp_path)
        kwargs = dict(
            n_nodes=9,
            distillation_values=(1.0, 2.0),
            topologies=("cycle",),
            n_requests=8,
            n_consumer_pairs=5,
            cache=cache,
        )
        first = run_figure4(**kwargs)
        stores_after_first = cache.stats.stores
        assert stores_after_first == 2
        second = run_figure4(**kwargs)
        assert cache.stats.stores == stores_after_first  # zero recomputed trials
        assert second.series("exact") == first.series("exact")

    def test_report_summary_mentions_provenance(self):
        report = SweepReport(outcomes=[], n_cached=3, n_computed=1, n_workers=2)
        summary = report.summary()
        assert "3 from cache" in summary and "2 worker" in summary

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
        """spawn-safety precondition: configs must survive a pickle round-trip."""
        for config in _tiny_configs():
            assert pickle.loads(pickle.dumps(config)) == config


class TestOnResultCallback:
    """The per-cell ``on_result`` hook the serve daemon's progress spine uses."""

    def test_callback_sees_every_cell_with_provenance(self, tmp_path):
        configs = _tiny_configs()
        cache = ResultCache(tmp_path)
        runner = SweepRunner(n_workers=1, cache=cache)
        runner.run([configs[0], configs[2]])  # pre-warm two of the four cells
        calls = []
        runner.run_with_report(configs, on_result=lambda i, o, c: calls.append((i, c)))
        # Cache hits fire first, then computed cells, each group in config order.
        assert [index for index, cached in calls if cached] == [0, 2]
        assert [index for index, cached in calls if not cached] == [1, 3]

    def test_callback_outcomes_match_the_report(self):
        configs = _tiny_configs()
        seen = {}
        report = SweepRunner(n_workers=1).run_with_report(
            configs, on_result=lambda i, o, c: seen.setdefault(i, o)
        )
        assert sorted(seen) == list(range(len(configs)))
        for index, outcome in seen.items():
            assert _fingerprint(outcome) == _fingerprint(report.outcomes[index])

    def test_callback_abort_never_loses_completed_work(self, tmp_path):
        """An exception from the callback (the daemon's cancel/timeout path)
        propagates only after the finished cell was written through the
        cache, so an aborted job resumes instead of recomputing."""
        configs = _tiny_configs()
        cache = ResultCache(tmp_path)

        class Abort(Exception):
            pass

        def on_result(index, outcome, cached):
            if index == 1:
                raise Abort

        with pytest.raises(Abort):
            SweepRunner(n_workers=1, cache=cache).run_with_report(
                configs, on_result=on_result
            )
        assert len(cache) == 2  # cells 0 and 1 were published before the abort

    def test_callback_fires_in_pool_mode_in_config_order(self):
        configs = _tiny_configs()
        calls = []
        report = SweepRunner(n_workers=2).run_with_report(
            configs, on_result=lambda i, o, c: calls.append(i)
        )
        assert calls == [0, 1, 2, 3]
        assert report.n_computed == len(configs)


#: Run in a child process: hammer one cache key with repeated writes.
_WRITER_SCRIPT = """
import sys

from repro.experiments.figure4 import figure4_configs
from repro.experiments.runner import run_trial
from repro.runtime import ResultCache

cache_dir, rounds = sys.argv[1], int(sys.argv[2])
config = figure4_configs(
    n_nodes=9, distillation_values=(1.0,), topologies=("cycle",), seeds=(1,),
    n_requests=6, n_consumer_pairs=5,
)[0]
outcome = run_trial(config)  # deterministic: every writer stores identical bytes
cache = ResultCache(cache_dir)
for _ in range(rounds):
    cache.put(config, outcome)
"""


class TestAtomicWrites:
    def test_atomic_write_bytes_roundtrip(self, tmp_path):
        target = tmp_path / "entry.bin"
        atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"
        atomic_write_bytes(target, b"replacement")
        assert target.read_bytes() == b"replacement"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_atomic_write_bytes_cleans_up_on_failure(self, tmp_path):
        """Regression: a failed publish must unlink its temporary file."""
        target = tmp_path / "entry.bin"
        target.mkdir()  # os.replace onto a directory fails on POSIX
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"payload")
        assert list(tmp_path.glob("*.tmp")) == []

    def test_two_process_write_storm_never_tears_or_orphans(self, tmp_path):
        """Satellite regression: two processes hammering the same cache key
        leave no ``*.tmp`` orphans and no torn entries -- a concurrent
        reader only ever observes a complete pickle (or no file at all)."""
        config = figure4_configs(
            n_nodes=9, distillation_values=(1.0,), topologies=("cycle",), seeds=(1,),
            n_requests=6, n_consumer_pairs=5,
        )[0]
        entry = tmp_path / f"{config_digest(config)}.pkl"
        import os

        import repro

        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), "40"],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            for _ in range(2)
        ]
        expected = None
        observed_entry = False
        try:
            while any(writer.poll() is None for writer in writers):
                # Torn-read probe: read the raw bytes, bypassing the cache's
                # corrupt-entry recovery, so a non-atomic write would fail
                # the unpickle here.
                try:
                    blob = entry.read_bytes()
                except FileNotFoundError:
                    continue
                observed_entry = True
                outcome = pickle.loads(blob)
                if expected is None:
                    expected = _fingerprint(outcome)
                assert _fingerprint(outcome) == expected
                time.sleep(0.001)
        finally:
            for writer in writers:
                writer.wait(timeout=120)
        for writer in writers:
            assert writer.returncode == 0, writer.stderr.read().decode()
        assert observed_entry, "writers finished without publishing anything"
        assert list(tmp_path.glob("*.tmp")) == [], "a writer leaked its temp file"
        assert list(tmp_path.glob("*.pkl")) == [entry]
        final = ResultCache(tmp_path).get(config)
        assert _fingerprint(final) == expected
