"""Start-up guard: scipy and ``repro.quantum`` stay off the count-level path.

Importing ``repro``, building the experiment registry and running every
experiment that solves no LP must never load scipy (its import alone costs
about a second and 65 MiB per process on a 2-CPU box, and every CLI call,
spawn sweep worker and ``repro serve`` daemon would pay it).  The same runs
must not load ``repro.quantum`` either: only the physics constructors of
``PairOverheads`` and the examples use it.  Each check runs in a fresh
interpreter so modules the test process already imported cannot mask or
fake an import.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

#: Runs each ``repro`` argv passed on the command line (as JSON), then
#: prints the loaded ``scipy`` and ``repro.quantum`` modules as the last
#: stdout line.
_PROBE = """
import contextlib, io, json, sys

import repro.cli
from repro.experiments.registry import experiment_names

experiment_names()
import repro.serve.daemon

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(argv) == 0, argv
print(json.dumps({
    prefix: sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))
    for prefix in ("scipy", "repro.quantum")
}))
"""


def _modules_after(*runs: List[str]) -> Dict[str, List[str]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(list(runs))],
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


def test_lp_run_loads_scipy_optimize():
    # The positive control: the probe does see the import it guards against.
    assert "scipy.optimize" in _modules_after(["lp", "--nodes", "9"])["scipy"]
