"""Start-up guard: scipy and ``repro.quantum`` stay off the count-level path.

Importing ``repro``, building the experiment registry and running every
experiment that solves no LP must never load scipy (its import alone costs
about a second and 65 MiB per process on a 2-CPU box, and every CLI call,
pool worker and ``repro serve`` daemon would pay it).  The same runs
must not load ``repro.quantum`` either: only the physics constructors of
``PairOverheads`` and the examples use it.  Each check runs in a fresh
interpreter so modules the test process already imported cannot mask or
fake an import.  The runs stay in that interpreter (``REPRO_WORKERS=1``),
so it sees every import their trials make; a second probe asks the
workers of a pooled run for theirs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

_TESTS = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(_TESTS, "..", "src")
_GUARDED = ("scipy", "repro.quantum")


def _loaded_modules(_item=None) -> Dict[str, List[str]]:
    """The loaded ``scipy`` and ``repro.quantum`` modules (a pool task too)."""
    return {
        prefix: sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))
        for prefix in _GUARDED
    }


#: Runs each ``repro`` argv passed on the command line (as JSON), then
#: prints this process's loaded guarded modules as the last stdout line.
_PROBE = """
import contextlib, io, json, sys

import repro.cli
from repro.experiments.registry import experiment_names

experiment_names()
import repro.serve.daemon

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(argv) == 0, argv

from test_startup import _loaded_modules

print(json.dumps(_loaded_modules()))
"""

#: Runs each argv like ``_PROBE``, then prints the guarded modules loaded
#: in any worker of the warm pool those runs used.
_WORKER_PROBE = """
import contextlib, io, json, sys

import repro.cli
from repro.runtime.pool import ordered_map
from test_startup import _loaded_modules

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(argv) == 0, argv
loaded = {}
for modules in ordered_map(_loaded_modules, range(8), 2):
    for prefix, names in modules.items():
        loaded.setdefault(prefix, set()).update(names)
print(json.dumps({prefix: sorted(names) for prefix, names in loaded.items()}))
"""


def _modules_after(*runs: List[str], probe: str = _PROBE) -> Dict[str, List[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, _TESTS, env.get("PYTHONPATH")]))
    # Every run stays in this process unless its argv asks for workers, so
    # the parent's modules include every import its trials make.
    env["REPRO_WORKERS"] = "1"
    completed = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(list(runs))],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_registry_and_daemon_imports_leave_scipy_unloaded():
    assert _modules_after() == {"scipy": [], "repro.quantum": []}


def test_experiments_without_an_lp_leave_scipy_unloaded():
    # Two seeds per point, so the figure series average several trials.
    loaded = _modules_after(
        ["figure4", "--nodes", "9", "--requests", "6", "--distillation", "1", "--seeds", "2"],
        ["figure5", "--sizes", "9", "--requests", "6", "--seeds", "2"],
        ["resilience", "--smoke"],
        ["traffic", "--smoke"],
        ["multicast", "--smoke"],
    )
    assert loaded == {"scipy": [], "repro.quantum": []}


def test_pool_workers_that_ran_trials_leave_scipy_unloaded():
    # Worker start-up plus pooled trials: the same guard, inside the workers.
    figure4 = ["figure4", "--nodes", "9", "--requests", "6", "--distillation", "1", "--seeds", "2"]
    loaded = _modules_after(figure4 + ["--workers", "2"], probe=_WORKER_PROBE)
    assert loaded == {"scipy": [], "repro.quantum": []}


def test_lp_run_loads_scipy_optimize():
    # The positive control: the probe does see the import it guards against.
    assert "scipy.optimize" in _modules_after(["lp", "--nodes", "9"])["scipy"]


def test_worker_probe_sees_a_pooled_lp_solve():
    # The worker probe's positive control: pooled LP solves import scipy there.
    loaded = _modules_after(["lp", "--nodes", "9", "--workers", "2"], probe=_WORKER_PROBE)
    assert "scipy.optimize" in loaded["scipy"]
