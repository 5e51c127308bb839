"""Parallel experiment runtime.

The experiment modules in :mod:`repro.experiments` describe *what* to run
(a grid of :class:`~repro.experiments.config.ExperimentConfig` cells); this
package decides *how* to run it:

* :mod:`repro.runtime.seeding` -- deterministic seed derivation: the
  named RNG streams every trial draws from, and per-trial seeds, so a
  sweep's random choices depend only on the master seed and the trial's
  position in the grid, never on worker count or scheduling order.
* :mod:`repro.runtime.pool` -- the one process-wide ``spawn`` worker
  pool (lazy, sized by ``$REPRO_WORKERS`` or the usable CPUs, rebuilt
  after a worker dies, shut down at exit) and its in-order map.
* :mod:`repro.runtime.sweep` -- :class:`SweepRunner`, which computes each
  distinct trial config once, fans them out across that pool and merges
  the outcomes back into config order.

The contract that makes all of this safe is that
:func:`repro.experiments.runner.run_trial` is a *pure function of its
config*: every random draw inside a trial comes from named streams derived
from ``config.seed`` (see :class:`~repro.runtime.seeding.RandomStreams`).
Parallelism is therefore observationally invisible -- a sweep returns
bit-identical outcomes whether it ran on one worker or sixteen.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.runtime.seeding": ("RandomStreams", "derive_seed", "seed_grid", "trial_seed"),
        "repro.runtime.sweep": ("SweepRunner",),
    },
)
