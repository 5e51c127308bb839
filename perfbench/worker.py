"""Batch benchmark worker: one fresh interpreter running ``paper-batch``.

``run.py`` starts this script with a scrubbed environment and
``PYTHONPATH`` pointing at the checkout's ``src``.  It prints ``ready``
once ``repro`` is imported and the experiment registry is built (the
set-up point ``run.py`` times), then repeats passes -- one
``Experiment.run`` call each, result validated and hashed, cycling through
the run's inputs (:func:`workloads.batch_inputs`) -- until the measurement
window is spent, and prints one ``report {json}`` line.

With ``--trace 1`` untraced and traced rounds alternate.  Traced passes run
with telemetry on and read the ``trial.*`` / ``sweep.*`` spans the program
emits; the benchmark itself times ``ScenarioDriver.on_round``,
``PathObliviousFlowProgram.build`` and ``solve_linear_program`` from
outside.  ``--probe`` stops after ``ready`` (extra set-up samples).

Usage::

    PYTHONPATH=src python3 perfbench/worker.py --seed 1 --seconds 45 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from collections import defaultdict
from typing import Any, Dict, List

from workloads import BATCH_EXPERIMENTS, batch_inputs, payload_digest


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="exit right after the set-up point")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Observer:
    """Collects what one pass did, from outside the program.

    Always: the outcomes ``Experiment.execute`` returns (work counters) and
    the size and build/solve time of every LP the ``lp`` layer builds.
    Around traced passes only: time spent in ``ScenarioDriver.on_round``.
    """

    def __init__(self, experiments) -> None:
        from repro.core.lp import formulation, solver
        from repro.scenarios.scenario import ScenarioDriver

        self.outcomes: List[Any] = []
        self.programs: List[tuple] = []
        self.seconds: Dict[str, float] = defaultdict(float)

        for experiment in experiments:
            experiment.execute = self._observed_execute(experiment.execute)

        build = formulation.PathObliviousFlowProgram.build

        def observed_build(program, objective):
            start = time.perf_counter()
            linear_program = build(program, objective)
            self.seconds["core.lp.build_s"] += time.perf_counter() - start
            nonzeros = linear_program.a_ub.nnz
            if linear_program.a_eq is not None:
                nonzeros += linear_program.a_eq.nnz
            self.programs.append(
                (linear_program.n_variables, linear_program.n_constraints, nonzeros)
            )
            return linear_program

        formulation.PathObliviousFlowProgram.build = observed_build

        solve = solver.solve_linear_program

        def observed_solve(linear_program):
            start = time.perf_counter()
            try:
                return solve(linear_program)
            finally:
                self.seconds["core.lp.solve_s"] += time.perf_counter() - start

        solver.solve_linear_program = observed_solve

        self._driver_class = ScenarioDriver
        self._on_round = ScenarioDriver.on_round

        def observed_on_round(driver, round_index):
            start = time.perf_counter()
            try:
                return self._on_round(driver, round_index)
            finally:
                self.seconds["scenarios.self_s"] += time.perf_counter() - start

        self._observed_on_round = observed_on_round

    def _observed_execute(self, execute):
        def observed_execute(grid, runtime):
            outcomes = execute(grid, runtime)
            self.outcomes.extend(outcomes)
            return outcomes

        return observed_execute

    def reset(self) -> None:
        self.outcomes = []
        self.programs = []
        self.seconds = defaultdict(float)

    def time_scenarios(self, on: bool) -> None:
        self._driver_class.on_round = self._observed_on_round if on else self._on_round

    def counters(self) -> Dict[str, int]:
        """Deterministic work counts of the pass (identical on every repeat)."""
        from repro.experiments.config import TrialOutcome

        trials = [outcome for outcome in self.outcomes if isinstance(outcome, TrialOutcome)]
        return {
            "workloads.requests": sum(t.requests_total for t in trials),
            "network.generation.pairs": sum(t.pairs_generated for t in trials),
            "core.maxmin.rounds": sum(t.rounds for t in trials),
            "core.maxmin.node_turns": sum(t.rounds * t.config.n_nodes for t in trials),
            "core.maxmin.swaps": sum(t.swaps_performed for t in trials),
            "protocols.requests_satisfied": sum(t.requests_satisfied for t in trials),
            "protocols.pairs_consumed": sum(t.pairs_consumed for t in trials),
            "core.lp.programs": len(self.programs),
            "core.lp.variables": sum(p[0] for p in self.programs),
            "core.lp.constraints": sum(p[1] for p in self.programs),
            "core.lp.nonzeros": sum(p[2] for p in self.programs),
        }


def layer_seconds(records, observed: Dict[str, float]) -> Dict[str, float]:
    """Per-layer self time of one traced pass, from its spans and observed timers."""
    total: Dict[str, float] = defaultdict(float)
    for record in records:
        total[record.name] += record.duration
    scenarios = observed.get("scenarios.self_s", 0.0)
    return {
        "network.topologies.self_s": total["trial.topology"],
        "workloads.self_s": total["trial.workload"],
        "protocols.setup_s": total["trial.routing"],
        "network.generation.self_s": total["trial.generation"] - scenarios,
        "scenarios.self_s": scenarios,
        "core.maxmin.self_s": total["trial.balance"],
        "protocols.consumption.self_s": total["trial.consumption"],
        "analysis.self_s": total["trial.reduce"],
        "runtime.sweep_overhead_s": total["sweep.run"] - total["sweep.trial"],
        "core.lp.build_s": observed.get("core.lp.build_s", 0.0),
        "core.lp.solve_s": observed.get("core.lp.solve_s", 0.0),
    }


def run_pass(experiment, params, observer: Observer, traced: bool) -> Dict[str, Any]:
    """One ``Experiment.run`` call, validated and hashed; timed end to end."""
    from repro.experiments.schema import validate_payload
    from repro.obs import spans

    observer.reset()
    if traced:
        spans.SPAN_BUFFER.clear()
        spans.enable(True)
        observer.time_scenarios(True)
    try:
        start = time.perf_counter()
        result = experiment.run(**params)
        payload = json.loads(result.to_json())
        validate_payload(payload)
        digest = payload_digest(payload)
        wall = time.perf_counter() - start
    finally:
        if traced:
            spans.disable()
            observer.time_scenarios(False)
    record: Dict[str, Any] = {
        "traced": traced,
        "wall_s": wall,
        "digest": digest,
        "counters": observer.counters(),
    }
    if traced:
        record["layers"] = layer_seconds(spans.SPAN_BUFFER.drain(), observer.seconds)
    return record


def main(argv=None) -> int:
    args = _parse(argv)
    from repro.experiments.registry import experiment_names, get_experiment

    experiment_names()
    print("ready", flush=True)
    if args.probe:
        return 0

    from repro.perf.bench import git_revision, machine_fingerprint
    from repro.perf.kernels import active_backend

    experiments = {name: get_experiment(name) for name in BATCH_EXPERIMENTS}
    inputs = batch_inputs(args.seed)
    observer = Observer(experiments.values())
    passes: List[Dict[str, Any]] = []
    error = None
    started = time.perf_counter()
    # Round-robin over the inputs, so the repeats of one input are spread
    # over the window; with --trace 1, untraced and traced rounds alternate.
    while True:
        index, rounds = len(passes) % len(inputs), len(passes) // len(inputs)
        traced = bool(args.trace) and rounds % 2 == 1
        name, params = inputs[index]
        try:
            record = run_pass(experiments[name], params, observer, traced)
        except Exception as exc:  # reported as a failed operation by run.py
            error = f"{type(exc).__name__}: {exc}"
            break
        record["input"] = index
        record["experiment"] = name
        passes.append(record)
        enough = len(passes) >= (2 if args.trace else 1) * len(inputs)
        elapsed = time.perf_counter() - started
        if enough and elapsed + record["wall_s"] > args.seconds:
            break

    report = {
        "passes": passes,
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernels": active_backend(),
        "revision": git_revision(),
        "fingerprint": machine_fingerprint(),
    }
    print("report " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
