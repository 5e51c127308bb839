"""The serve-prefix scan of the consumption phase.

Each round, the path-oblivious protocol serves pending requests head of
line first until one finds its consumer pair's budget spent.
:func:`servable_prefix` sizes that burst in one blockwise NumPy scan
instead of a per-request Python loop.  The direct loop it must match
bit-for-bit lives in ``tests/serve_prefix_oracle.py``.
"""

from __future__ import annotations

import numpy as np

#: Block size of the serve-prefix scan: large enough that the per-block
#: ``np.bincount`` dominates, small enough that pinpointing the failure
#: inside the failing block stays cheap.
_SERVE_PREFIX_BLOCK = 4096


def active_backend() -> str:
    """The kernel backend name, always ``"numpy"``.

    There is one implementation, so this is a constant.  It stays because
    the ``perfbench/`` worker records it in every run report and the
    harness requires the value ``"numpy"``.
    """
    return "numpy"


def servable_prefix(codes: np.ndarray, budgets: np.ndarray) -> int:
    """Length of the maximal servable head-of-line prefix.

    ``codes[i]`` is the consumer-pair index of pending request ``i`` (head
    first); ``budgets[p]`` is how many consumptions pair ``p`` can fund
    right now (its ledger count floor-divided by its distillation cost).
    Serving a request spends one unit of its own pair's budget and nothing
    else, so the greedy stop-at-first-failure prefix ends at the first
    position whose pair has exhausted its budget.
    """
    # Blockwise histogram scan: accumulate per-pair counts one block at a
    # time and stop at the first block whose running counts exceed any
    # budget.  Failures in later blocks sit at larger positions, so the
    # earliest in-block failure is the global one.
    n = len(codes)
    n_pairs = len(budgets)
    counts = np.zeros(n_pairs, dtype=np.int64)
    for start in range(0, n, _SERVE_PREFIX_BLOCK):
        block = codes[start : start + _SERVE_PREFIX_BLOCK]
        new_counts = counts + np.bincount(block, minlength=n_pairs)
        if np.any(new_counts > budgets):
            prefix = n
            for pair in np.flatnonzero(new_counts > budgets):
                # The budgets[pair]-th occurrence overall is the first to
                # fail; (budgets - counts) of them land in this block (a
                # pre-exhausted budget fails at the block's very first hit).
                need = max(int(budgets[pair]) - int(counts[pair]), 0)
                position = start + int(np.flatnonzero(block == pair)[need])
                prefix = min(prefix, position)
            return prefix
        counts = new_counts
    return n
