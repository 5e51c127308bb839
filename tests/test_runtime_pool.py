"""The shared worker pool: crash recovery, cancellation, telemetry, lifetime.

Tasks handed to the pool must be module-level functions (``spawn`` pickles
them by name), so the helpers below live at module scope.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest

from repro.experiments.api import RuntimeOptions
from repro.experiments.registry import get_experiment
from repro.obs import spans as spans_mod
from repro.runtime import pool
from repro.runtime.pool import PoolWorkerDied, ordered_map

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Twelve figure4 cells of tens of milliseconds each: long enough that a
#: run is still waiting on its workers when its first result lands.
SLOWER_GRID = dict(
    n_nodes=16,
    n_requests=30,
    topologies=("grid",),
    distillation_values=(1.0, 2.0),
    seeds=6,
)


def _record_then_return(item):
    """Pool task: wait, leave a marker file, return the item's number."""
    directory, number, delay = item
    time.sleep(delay)
    Path(directory, str(number)).touch()
    return number


def _square(number):
    return number * number


def _figure4_json(workers, **params) -> str:
    return get_experiment("figure4").run(runtime=RuntimeOptions(workers=workers), **params).to_json()


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie awaiting its reaper is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:  # gone, or going while we read
        return False


def _wait_until_gone(pids, seconds: float = 10.0) -> list:
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and any(_alive(pid) for pid in pids):
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


@pytest.fixture(autouse=True)
def _telemetry_off_after():
    yield
    spans_mod.enable(False)
    spans_mod.SPAN_BUFFER.clear()


class TestCrashRecovery:
    def test_killed_worker_fails_the_run_and_the_next_run_rebuilds(self):
        expected = _figure4_json(1, **SLOWER_GRID)
        _figure4_json(2, smoke=True)  # start the pool
        killed = []

        def kill_every_worker(index, outcome):
            if not killed:
                killed.extend(pool._executor._processes)
                for pid in killed:
                    os.kill(pid, signal.SIGKILL)

        with pytest.raises(PoolWorkerDied, match="worker process died"):
            get_experiment("figure4").run(
                runtime=RuntimeOptions(workers=2, on_result=kill_every_worker), **SLOWER_GRID
            )
        assert killed and pool._executor is None
        assert _figure4_json(2, **SLOWER_GRID) == expected
        assert not set(pool._executor._processes) & set(killed)

    def test_worker_killed_between_runs_is_replaced(self):
        expected = _figure4_json(1, smoke=True)
        _figure4_json(2, smoke=True)
        pids = list(pool._executor._processes)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        assert _wait_until_gone(pids) == []
        assert _figure4_json(2, smoke=True) == expected


class TestCancellation:
    def test_closing_a_run_early_cancels_its_queued_tasks(self, tmp_path):
        items = [(str(tmp_path), number, 0.2) for number in range(20)]
        with closing(ordered_map(_record_then_return, items, 2)) as results:
            assert next(results) == 0
        # The next run is not queued behind the 19 abandoned tasks: only the
        # ones already running (two) or handed to the pool's call queue
        # (workers + 1) still finish.
        assert list(ordered_map(_record_then_return, [(str(tmp_path), "next", 0.0)] * 2, 2)) == [
            "next",
            "next",
        ]
        markers = {path.name for path in tmp_path.iterdir()} - {"next"}
        assert len(markers) <= 6, sorted(markers)

    def test_raising_on_result_aborts_and_leaves_the_pool_usable(self):
        expected = _figure4_json(1, smoke=True)

        class Abort(Exception):
            pass

        def abort(index, outcome):
            raise Abort

        with pytest.raises(Abort):
            get_experiment("figure4").run(
                runtime=RuntimeOptions(workers=2, on_result=abort), **SLOWER_GRID
            )
        assert _figure4_json(2, smoke=True) == expected


class TestSharedUse:
    def test_concurrent_runs_on_the_shared_pool_get_their_own_results(self):
        """Four threads map over one pool of three workers (more than the
        cores here); every run gets exactly its own results, in order."""
        results = {}

        def run(offset):
            items = list(range(offset, offset + 40))
            results[offset] = list(ordered_map(_square, items, 3))

        threads = [threading.Thread(target=run, args=(100 * n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert results == {
            100 * n: [x * x for x in range(100 * n, 100 * n + 40)] for n in range(4)
        }

    def test_a_resize_waits_for_the_submissions_in_flight(self, monkeypatch):
        """A run asking for another worker count cannot shut the pool down
        between another run's pool lookup and its submissions."""
        other = []
        submit_all = ProcessPoolExecutor.map

        def map_while_another_count_is_asked_for(executor, *args, **kwargs):
            if not other:  # the first run: start the other one, give it time
                other.append(
                    threading.Thread(
                        target=lambda: other.append(list(ordered_map(_square, [1, 2, 3], 3)))
                    )
                )
                other[0].start()
                time.sleep(0.3)
            return submit_all(executor, *args, **kwargs)

        monkeypatch.setattr(ProcessPoolExecutor, "map", map_while_another_count_is_asked_for)
        assert list(ordered_map(_square, [4, 5, 6], 2)) == [16, 25, 36]
        other[0].join(timeout=60)
        assert other[1:] == [[1, 4, 9]]


class TestTelemetry:
    def _span_names(self, experiment, workers, **params):
        spans_mod.SPAN_BUFFER.clear()
        result = get_experiment(experiment).run(runtime=RuntimeOptions(workers=workers), **params)
        names = Counter(record.name for record in spans_mod.SPAN_BUFFER.drain())
        return result.to_json(), names

    def test_programmatic_switch_reaches_warm_workers(self, monkeypatch):
        plain = _figure4_json(2, smoke=True)  # the pool starts with telemetry off
        spans_mod.enable(True)
        monkeypatch.delenv(spans_mod.TELEMETRY_ENV)  # the switch alone, no env var
        inline_json, inline = self._span_names("figure4", 1, smoke=True)
        pooled_json, pooled = self._span_names("figure4", 2, smoke=True)
        def trial(names):
            return {
                name: count
                for name, count in names.items()
                if name.startswith("trial.") or name == "sweep.trial"
            }

        # Pooled trials report their `sweep.trial` spans too.
        assert inline["sweep.trial"] > 1 and trial(pooled) == trial(inline)
        assert inline_json == pooled_json == plain

    def test_lp_solve_spans_come_back_from_the_workers(self):
        spans_mod.enable(True)
        inline_json, inline = self._span_names("lp", 1, n_nodes=9)
        pooled_json, pooled = self._span_names("lp", 2, n_nodes=9)
        assert pooled["lp.solve"] == inline["lp.solve"] == 24
        assert pooled_json == inline_json


#: Runs one pooled experiment, prints the pool's worker PIDs, then either
#: exits normally or (with ``hang``) waits to be killed.
_CHILD = """
import sys, time
from repro.experiments.api import RuntimeOptions
from repro.experiments.registry import get_experiment
from repro.runtime import pool

get_experiment("figure4").run(runtime=RuntimeOptions(workers=2), smoke=True)
print(" ".join(map(str, pool._executor._processes)), flush=True)
if sys.argv[1] == "hang":
    time.sleep(60)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
class TestLifetime:
    def test_nothing_spawns_at_import_or_registry_build(self):
        probe = (
            "import multiprocessing, sys, repro.cli, repro.serve.daemon\n"
            "from repro.experiments.registry import experiment_names\n"
            "experiment_names()\n"
            "print(len(multiprocessing.active_children()), 'repro.runtime.pool' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=_SRC)
        completed = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert completed.stdout.split() == ["0", "False"], completed.stderr

    def _child(self, mode):
        env = dict(os.environ, PYTHONPATH=_SRC)
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, mode],
            env=env,
            stdout=subprocess.PIPE,
            # A killed child's semaphore tracker reports the leak on stderr.
            stderr=subprocess.DEVNULL if mode == "hang" else None,
            text=True,
        )
        pids = [int(pid) for pid in child.stdout.readline().split()]
        assert len(pids) == 2
        return child, pids

    def test_workers_exit_with_their_interpreter(self):
        child, pids = self._child("exit")
        assert child.wait(timeout=60) == 0
        assert _wait_until_gone(pids) == []

    def test_workers_exit_when_their_parent_is_killed(self):
        child, pids = self._child("hang")
        child.kill()
        child.wait(timeout=10)
        assert _wait_until_gone(pids) == []
