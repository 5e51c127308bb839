"""Path-Oblivious Entanglement Swapping for the Quantum Internet -- reproduction.

A from-scratch implementation of the system described in Mutolo, Parekh and
Rubenstein, *Path-Oblivious Entanglement Swapping for the Quantum Internet*
(HotNets 2025): the path-oblivious linear-program formulation, the max-min
distributed balancing protocol, planned-path baselines, the quantum and
network substrates they run on, and the experiment harness that regenerates
the paper's evaluation figures.

Quick start::

    from repro.experiments import get_experiment

    if __name__ == "__main__":  # pool workers re-import this script
        result = get_experiment("figure4").run(n_nodes=25, distillation_values=[1, 2])
        print(result.format_report())
        print(result.to_json())  # the same result, machine-readable

Runs with more than one worker use a ``spawn`` process pool whose workers
re-import the calling script, so a script must run experiments under the
``__main__`` guard (or pass ``runtime=RuntimeOptions(workers=1)``).

See README.md for the package layout, docs/architecture.md for the
simulation pipeline, runtime layer and experiment API, and
docs/reproducing.md for the per-experiment index.
"""

__version__ = "1.2.0"

__all__ = ["__version__"]
