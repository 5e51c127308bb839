"""Start-up guard: scipy and ``repro.quantum`` stay off the count-level path.

Importing ``repro``, building the experiment registry, running every
experiment that solves no LP and building LPs for pool workers to solve
must never load scipy (its import alone costs about a second and 65 MiB
per process on a 2-CPU box, and every CLI call, pool worker and ``repro
serve`` daemon would pay it).  The same runs
must not load ``repro.quantum`` either: the physics layer is a separate
layer that only the examples use, and a static scan checks that no other
``repro`` module imports it.  Each check runs in a fresh
interpreter so modules the test process already imported cannot mask or
fake an import.  The runs stay in that interpreter (``REPRO_WORKERS=1``),
so it sees every import their trials make; a second probe asks the
workers of a pooled run for theirs.

The second half checks that each entry point imports only the code it
runs: the registry, the daemon and ``repro serve`` at health load no numpy
and no experiment module, ``repro figure4 --help`` loads one experiment,
pool workers load the trial path only, and the ``repro`` modules form no
import cycle, which lazy imports from the daemon's threads would trip over.
"""

from __future__ import annotations

import ast
import graphlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Set

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


def _imports_of(path: Path) -> Set[str]:
    """Every module an ``import`` anywhere in ``path`` names, even in a function."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module:
            names.update({node.module} | {f"{node.module}.{alias.name}" for alias in node.names})
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    return names


def _quantum_importers(source: Path) -> List[str]:
    """The modules outside ``repro/quantum/`` that import ``repro.quantum``."""
    return sorted(
        str(path.relative_to(source))
        for path in source.rglob("*.py")
        if path.parent != source / "quantum"
        and any(name.split(".")[:2] == ["repro", "quantum"] for name in _imports_of(path))
    )


def test_only_the_physics_layer_imports_repro_quantum():
    # The count-level layers take D, L and R as numbers; deriving them from
    # fidelities is the examples' job.  Lazy imports inside a function and
    # ``TYPE_CHECKING`` imports count too.
    assert _quantum_importers(Path(_SRC).resolve() / "repro") == []


def test_the_layer_scan_sees_a_function_level_import(tmp_path):
    (tmp_path / "quantum").mkdir()
    (tmp_path / "quantum" / "fidelity.py").write_text("from repro.quantum import qec\n")
    (tmp_path / "overheads.py").write_text(
        "def derive():\n    from repro.quantum.distillation import distillation_overhead\n"
    )
    (tmp_path / "plain.py").write_text("import repro.quantumish\n")
    assert _quantum_importers(tmp_path) == ["overheads.py"]


def test_lp_run_loads_scipy_optimize():
    # The positive control: the probe does see the import it guards against.
    assert "scipy.optimize" in _modules_after(["lp", "--nodes", "9"])["scipy"]


def test_worker_probe_sees_a_pooled_lp_solve():
    # The worker probe's positive control: pooled LP solves import scipy there.
    loaded = _modules_after(["lp", "--nodes", "9", "--workers", "2"], probe=_WORKER_PROBE)
    assert "scipy.optimize" in loaded["scipy"]


def test_pooled_lp_parent_leaves_scipy_unloaded():
    # The parent builds every program but solves none: the constraint
    # matrix is numpy CSR arrays until a worker wraps it for HiGHS.
    loaded = _modules_after(["lp", "--nodes", "9", "--workers", "2"])
    assert loaded == {"scipy": [], "repro.quantum": []}


# -- what each entry point imports ------------------------------------------
#
# The registry answers names from its manifest, and the package ``__init__``
# files export lazily, so an entry point imports only the code it runs: no
# numpy before the first trial, and one experiment module per experiment run.

#: Never needed by a pool worker that runs trials.
_OFF_THE_TRIAL_PATH = ("repro.serve", "repro.classical")


def _start_path_modules(_item=None) -> Dict[str, List[str]]:
    """The loaded ``numpy`` and ``repro`` modules (a pool task too)."""
    return {
        prefix: sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))
        for prefix in ("numpy", "repro")
    }


def _manifest_modules() -> Set[str]:
    # Imported here, not at the top: the probe interpreters import this file.
    from repro.experiments.registry import MANIFEST

    return set(MANIFEST.values())


def _experiment_modules(loaded: Dict[str, List[str]]) -> Set[str]:
    return set(loaded["repro"]) & _manifest_modules()


#: Runs each Python statement passed on the command line (as JSON; a
#: ``SystemExit(0)``, as from ``--help``, counts as success), then prints the
#: loaded numpy and repro modules as the last stdout line.
_STATEMENT_PROBE = """
import contextlib, io, json, sys

for statement in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            exec(statement)
        except SystemExit as stop:
            assert stop.code in (0, None), statement

from test_startup import _start_path_modules

print(json.dumps(_start_path_modules()))
"""

#: Starts ``repro serve`` and prints the modules loaded at the moment the
#: daemon first answers ``health`` with ``serving``; then SIGTERM drains it.
_SERVE_PROBE = """
import json, os, shutil, signal, sys, tempfile, threading, time

import repro.cli
from test_startup import _start_path_modules

home = tempfile.mkdtemp()
address = os.path.join(home, "serve.sock")
at_health = {}


def probe():
    from repro.serve.client import ServeClient

    deadline = time.monotonic() + 60
    while time.monotonic() < deadline and not at_health:
        try:
            with ServeClient(address, timeout=5) as client:
                if client.health()["state"] == "serving":
                    at_health.update(_start_path_modules())
        except OSError:
            time.sleep(0.01)
    os.kill(os.getpid(), signal.SIGTERM)


threading.Thread(target=probe, daemon=True).start()
try:
    assert repro.cli.main(["serve", "--socket", address]) == 0
finally:
    shutil.rmtree(home, ignore_errors=True)
print(json.dumps(at_health))
"""

#: Runs each argv like ``_PROBE``, then prints the numpy and repro modules
#: loaded in any worker of the warm pool those runs used.
_POOLED_PROBE = """
import contextlib, io, json, sys

import repro.cli
from repro.runtime.pool import ordered_map
from test_startup import _start_path_modules

for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert repro.cli.main(argv) == 0, argv
loaded = {}
for modules in ordered_map(_start_path_modules, range(8), 2):
    for prefix, names in modules.items():
        loaded.setdefault(prefix, set()).update(names)
print(json.dumps({prefix: sorted(names) for prefix, names in loaded.items()}))
"""


def test_registry_names_load_no_numpy_and_no_experiment():
    loaded = _modules_after(
        "from repro.experiments.registry import experiment_names; experiment_names()",
        probe=_STATEMENT_PROBE,
    )
    assert loaded["numpy"] == []
    assert _experiment_modules(loaded) == set()


def test_daemon_import_loads_no_numpy():
    loaded = _modules_after("import repro.serve.daemon", probe=_STATEMENT_PROBE)
    assert loaded["numpy"] == []
    assert _experiment_modules(loaded) == set()


def test_physics_layer_loads_no_numpy():
    loaded = _modules_after(
        "import repro.quantum.fidelity, repro.quantum.distillation", probe=_STATEMENT_PROBE
    )
    assert loaded["numpy"] == []
    assert "repro.quantum.distillation" in loaded["repro"]


def test_serve_answers_health_before_numpy_or_any_experiment():
    loaded = _modules_after(probe=_SERVE_PROBE)
    assert loaded["repro"], "the daemon never answered health: serving"
    assert loaded["numpy"] == []
    assert _experiment_modules(loaded) == set()


def test_experiment_help_loads_only_that_experiment():
    loaded = _modules_after(
        "import repro.cli; repro.cli.main(['figure4', '--help'])", probe=_STATEMENT_PROBE
    )
    assert _experiment_modules(loaded) == {"repro.experiments.figure4"}


def test_pooled_figure4_workers_load_the_trial_path_only():
    figure4 = ["figure4", "--nodes", "9", "--requests", "6", "--distillation", "1", "--seeds", "2"]
    loaded = _modules_after(figure4 + ["--workers", "2"], probe=_POOLED_PROBE)
    assert "repro.experiments.runner" in loaded["repro"], "the workers ran no trial"
    assert _experiment_modules(loaded) == set()
    assert [m for m in loaded["repro"] if m.startswith(_OFF_THE_TRIAL_PATH)] == []


def test_getting_an_experiment_loads_numpy():
    # The positive control: the probe does see a numpy import.
    loaded = _modules_after(
        "from repro.experiments.registry import get_experiment; get_experiment('figure4')",
        probe=_STATEMENT_PROBE,
    )
    assert "numpy" in loaded["numpy"]
    assert _experiment_modules(loaded) == {"repro.experiments.figure4"}


def test_listing_loads_every_experiment():
    # The positive control for the experiment-module gates.
    loaded = _modules_after("import repro.cli; repro.cli.main(['--list'])", probe=_STATEMENT_PROBE)
    assert _experiment_modules(loaded) == _manifest_modules()


def _import_graph(source: Path) -> Dict[str, Set[str]]:
    """Module -> the ``repro`` modules its module-level imports load first.

    An import loads every parent package before the module, and imports
    under ``if TYPE_CHECKING:`` never run, so they are left out.
    """
    modules = {}
    for path in source.rglob("*.py"):
        parts = path.relative_to(source.parent).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    graph: Dict[str, Set[str]] = {}
    for name, path in modules.items():
        targets = {name.rpartition(".")[0]} - {""}
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, ast.ImportFrom) and statement.module:
                targets.add(statement.module)
                targets.update(f"{statement.module}.{alias.name}" for alias in statement.names)
            elif isinstance(statement, ast.Import):
                targets.update(alias.name for alias in statement.names)
        graph[name] = {
            ".".join(target.split(".")[: depth + 1])
            for target in targets
            for depth in range(target.count(".") + 1)
        } & (modules.keys() - {name})
    return graph


def test_repro_modules_form_no_import_cycle():
    # Modules load lazily, and ``repro serve`` loads them from its connection
    # and worker threads at once.  Two threads importing into one import
    # cycle (an eager package ``__init__`` and its submodules make one) can
    # deadlock, which Python breaks with an ImportError.
    graph = _import_graph(Path(_SRC).resolve() / "repro")
    assert len(graph) > 50
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


#: Imports every ``repro`` module named on the command line at once, one
#: thread each, with a short switch interval; prints the import errors and
#: the threads still running.  Not shorter: at 1 µs CPython's own importlib
#: (``_load_unlocked`` pops and re-inserts a finished module in
#: ``sys.modules``) lets a thread importing a child miss its parent.
_THREADED_IMPORT_PROBE = """
import importlib, json, sys, threading

modules = json.loads(sys.argv[1])
errors = []
barrier = threading.Barrier(len(modules), timeout=60)


def load(name):
    barrier.wait()
    try:
        importlib.import_module(name)
    except Exception as error:
        errors.append(f"{name}: {type(error).__name__}: {error}")


sys.setswitchinterval(1e-3)
threads = [threading.Thread(target=load, args=(name,)) for name in modules]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(json.dumps({"errors": errors, "stuck": sum(thread.is_alive() for thread in threads)}))
"""


def test_concurrent_first_imports_of_every_module_succeed():
    # The run-time face of the cycle gate: threads importing into a package
    # cycle at once fail with "deadlock detected" or a partially initialised
    # module, as they did before the package ``__init__`` files went lazy.
    modules = sorted(set(_import_graph(Path(_SRC).resolve() / "repro")) - {"repro.__main__"})
    for _ in range(3):
        assert _modules_after(*modules, probe=_THREADED_IMPORT_PROBE) == {"errors": [], "stuck": 0}


def test_every_package_export_resolves():
    # A lazy export is imported only when first read, so a stale entry in a
    # package's table would fail there; read every one.
    modules = sorted(_import_graph(Path(_SRC).resolve() / "repro"))
    unresolved = [
        f"{module}.{name}"
        for module in modules
        for name in getattr(importlib.import_module(module), "__all__", ())
        if not hasattr(sys.modules[module], name)
    ]
    assert unresolved == []


def test_the_cycle_scan_sees_an_eager_package_init(tmp_path):
    package = tmp_path / "repro" / "network"
    package.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (package / "__init__.py").write_text("from repro.network.topology import Topology\n")
    (package / "topology.py").write_text("from repro.network import demand\n")
    (package / "demand.py").write_text("")
    graph = _import_graph(tmp_path / "repro")
    assert graph["repro.network.topology"] == {"repro", "repro.network", "repro.network.demand"}
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError:
        return
    raise AssertionError("the scan missed the package cycle")
