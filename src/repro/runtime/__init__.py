"""Parallel experiment runtime.

The experiment modules in :mod:`repro.experiments` describe *what* to run
(a grid of :class:`~repro.experiments.config.ExperimentConfig` cells); this
package decides *how* to run it:

* :mod:`repro.runtime.seeding` -- deterministic per-trial seed derivation,
  so a sweep's random choices depend only on the master seed and the
  trial's position in the grid, never on worker count or scheduling order.
* :mod:`repro.runtime.cache` -- a content-addressed on-disk result cache
  keyed on the full trial config, its seed and the version of the
  simulation code, so regenerating a figure recomputes only the cells that
  actually changed.
* :mod:`repro.runtime.pool` -- the one process-wide ``spawn`` worker
  pool (lazy, sized by ``$REPRO_WORKERS`` or the usable CPUs, rebuilt
  after a worker dies, shut down at exit) and its in-order map.
* :mod:`repro.runtime.sweep` -- :class:`SweepRunner`, which fans trial
  configs out across that pool and merges cached and freshly computed
  outcomes back into config order.

The contract that makes all of this safe is that
:func:`repro.experiments.runner.run_trial` is a *pure function of its
config*: every random draw inside a trial comes from named streams derived
from ``config.seed`` (see :mod:`repro.sim.rng`).  Parallelism and caching
are therefore observationally invisible -- a sweep returns bit-identical
outcomes whether it ran on one worker, sixteen workers, or straight out of
the cache.
"""

from repro.runtime.cache import ResultCache, atomic_write_bytes, code_version, config_digest
from repro.runtime.seeding import seed_grid, trial_seed
from repro.runtime.sweep import SweepReport, SweepRunner

__all__ = [
    "ResultCache",
    "atomic_write_bytes",
    "SweepReport",
    "SweepRunner",
    "code_version",
    "config_digest",
    "seed_grid",
    "trial_seed",
]
