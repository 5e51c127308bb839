"""Reference oracle for :func:`repro.perf.kernels.servable_prefix`.

The direct per-request loop: walk the pending codes head first, spend one
unit of each request's pair budget, and stop at the first request whose
budget is already spent.  The blockwise NumPy scan must return exactly
this prefix length on every input.
"""

from __future__ import annotations


def serve_prefix_oracle(codes, budgets) -> int:
    """Length of the maximal servable head-of-line prefix, one request at a time."""
    remaining = [int(budget) for budget in budgets]
    served = 0
    for code in codes:
        if remaining[code] <= 0:
            return served
        remaining[code] -= 1
        served += 1
    return served
