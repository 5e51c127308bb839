"""Deterministic per-trial seed derivation for parallel sweeps.

A sweep that runs ``n`` Monte-Carlo trials of the same configuration must
give every trial an independent random seed, and that assignment must not
depend on *how* the sweep executes: the trial at grid position ``i`` gets
the same seed whether the sweep runs on one worker or sixteen, today or
next year, on Linux or macOS.

The derivation reuses :func:`repro.sim.rng.derive_seed` (SHA-256 over the
master seed and a label), so trial seeds are stable across Python versions
and processes and statistically independent of each other and of every
named stream inside a trial.
"""

from __future__ import annotations

from typing import List

from repro.sim.rng import derive_seed


def trial_seed(master_seed: int, trial_index: int, salt: str = "trial") -> int:
    """The seed for Monte-Carlo trial ``trial_index`` of a sweep.

    Parameters
    ----------
    master_seed:
        The sweep-level seed the user chose.
    trial_index:
        The trial's position in the sweep grid (0-based).
    salt:
        Namespace label, so two different sweeps sharing a master seed can
        still draw disjoint trial-seed families.
    """
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index}")
    return derive_seed(master_seed, f"{salt}-{trial_index}")


def seed_grid(master_seed: int, n_trials: int, salt: str = "trial") -> List[int]:
    """The first ``n_trials`` trial seeds derived from ``master_seed``."""
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    return [trial_seed(master_seed, index, salt=salt) for index in range(n_trials)]
