"""Deterministic seed derivation: named streams and per-trial seeds.

Every random draw in the reproduction derives from one seed through
:func:`derive_seed` (SHA-256 over the seed and a label), so derived seeds
are stable across Python versions and processes (unlike ``hash()``).

* Inside a trial, each stochastic component (topology wiring,
  consumer-pair selection, request sequencing, swap tie-breaking,
  generation jitter, ...) draws from its *own named stream* of
  :class:`RandomStreams`.  The same trial seed reproduces the same run
  bit for bit, and a change to one component's draws does not perturb
  the random choices of unrelated components.
* Across a sweep, :func:`trial_seed` gives the trial at grid position
  ``i`` the same seed whether the sweep runs on one worker or sixteen,
  today or next year, on Linux or macOS.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """A stable seed below ``2**63`` for label ``name`` under ``root_seed``.

    The result seeds :class:`numpy.random.Generator` or
    :class:`random.Random` alike.
    """
    payload = f"{root_seed}:{name}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


class RandomStreams:
    """A registry of independent, named :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> streams = RandomStreams(root_seed=7)
    >>> a = streams.get("demand").integers(0, 100)
    >>> b = RandomStreams(root_seed=7).get("demand").integers(0, 100)
    >>> int(a) == int(b)
    True
    """

    def __init__(self, root_seed: int = 0):
        if not isinstance(root_seed, int):
            raise TypeError(f"root_seed must be an int, got {type(root_seed).__name__}")
        self._root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if necessary) the generator for stream ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(derive_seed(self._root_seed, name))
        return self._streams[name]


def trial_seed(master_seed: int, trial_index: int) -> int:
    """The seed for Monte-Carlo trial ``trial_index`` (0-based) of a sweep."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index}")
    return derive_seed(master_seed, f"trial-{trial_index}")


def seed_grid(master_seed: int, n_trials: int) -> List[int]:
    """The first ``n_trials`` trial seeds derived from ``master_seed``."""
    if n_trials <= 0:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    return [trial_seed(master_seed, index) for index in range(n_trials)]
