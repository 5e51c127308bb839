"""Accelerated hot-path kernels behind the ``REPRO_KERNELS`` backend switch.

Profiles of the large-topology sweeps (``repro profile scaling``) are
dominated by interpreter-bound loops such as the balancer's candidate-block
evaluation in :mod:`repro.core.maxmin` and the per-request head-of-line
stepping of the consumption phase in :mod:`repro.protocols`.  Each of those
hotspots is factored here into a *kernel*: a pure function over plain arrays
with no simulator state, shipped as a (reference, accelerated) pair.

* The **reference** implementation is pure Python.  It is the compatibility
  contract: every accelerated implementation must reproduce its output
  bit-for-bit on every input (the differential suite in
  ``tests/test_perf_kernels.py`` enumerates this registry and checks).
* The **numpy** implementation vectorizes the same computation.
* The optional **numba** implementation JIT-compiles a loop form; it is
  used only when :mod:`numba` is importable.

The backend is chosen by the ``REPRO_KERNELS`` environment variable
(``python`` | ``numpy`` | ``numba``, default ``numpy``).  Requesting a
backend that is unavailable in the current environment silently falls back
to the pure-Python reference — accelerators are an optimisation, never a
dependency.  The active backend also enters the result-cache key (see
:mod:`repro.runtime.cache`), so cached trials can never cross backends even
though backends are bit-identical by contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    import numba  # type: ignore
except Exception:  # pragma: no cover - the common (and CI) case
    numba = None

#: Environment variable selecting the kernel backend.
KERNELS_ENV = "REPRO_KERNELS"

#: Every backend the switch understands, in fallback-free preference order.
KERNEL_BACKENDS: Tuple[str, ...] = ("python", "numpy", "numba")

#: Backend used when ``REPRO_KERNELS`` is unset.
DEFAULT_BACKEND = "numpy"


def numba_available() -> bool:
    """Whether the optional numba JIT backend can be used at all."""
    return numba is not None


def available_backends() -> Tuple[str, ...]:
    """The backends usable in this environment (numba only if importable)."""
    return tuple(b for b in KERNEL_BACKENDS if b != "numba" or numba_available())


def requested_backend() -> str:
    """The backend named by ``$REPRO_KERNELS`` (validated), default ``numpy``."""
    value = os.environ.get(KERNELS_ENV, "").strip() or DEFAULT_BACKEND
    if value not in KERNEL_BACKENDS:
        raise ValueError(
            f"{KERNELS_ENV}={value!r} is not a kernel backend; "
            f"choose from {KERNEL_BACKENDS}"
        )
    return value


def active_backend() -> str:
    """The backend kernels actually dispatch to right now.

    An unavailable requested backend (e.g. ``numba`` without numba
    installed) falls back to the pure-Python reference rather than failing:
    accelerated kernels are bit-identical to the reference, so degrading is
    always safe.
    """
    backend = requested_backend()
    if backend not in available_backends():
        return "python"
    return backend


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class KernelPair:
    """One hotspot kernel: the reference and its accelerated twins."""

    name: str
    summary: str
    reference: Callable
    numpy_impl: Callable
    numba_impl: Optional[Callable] = None

    def implementation(self, backend: str) -> Callable:
        """The callable for ``backend`` (reference when it has no impl)."""
        if backend == "numpy":
            return self.numpy_impl
        if backend == "numba":
            if self.numba_impl is not None and numba_available():
                return self.numba_impl
            return self.reference
        if backend == "python":
            return self.reference
        raise ValueError(f"unknown kernel backend {backend!r}")

    def dispatch(self) -> Callable:
        """The callable for the currently active backend."""
        return self.implementation(active_backend())


KERNEL_REGISTRY: Dict[str, KernelPair] = {}


def register_kernel(pair: KernelPair) -> KernelPair:
    if pair.name in KERNEL_REGISTRY:
        raise ValueError(f"kernel {pair.name!r} registered twice")
    KERNEL_REGISTRY[pair.name] = pair
    return pair


def kernel_names() -> Tuple[str, ...]:
    """Every registered kernel name (the differential suite iterates this)."""
    return tuple(sorted(KERNEL_REGISTRY))


def get_kernel(name: str) -> KernelPair:
    try:
        return KERNEL_REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; registered: {kernel_names()}") from None


# ---------------------------------------------------------------------- #
# Kernel 1: balancer-candidates — one repeater's preferable-swap block
# ---------------------------------------------------------------------- #
def _candidate_block_python(
    headroom: np.ndarray, recipient: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Valid ``left < right`` partner pairings of one repeater.

    ``headroom[k]`` is partner ``k``'s donation headroom (count minus
    distillation cost); ``recipient[r, c]`` is the produced pair's current
    count.  A pairing is preferable exactly when
    ``recipient + 1 <= min(headroom[r], headroom[c])`` (the paper's
    condition with the headroom already pre-subtracted).
    """
    rows = []
    cols = []
    k = len(headroom)
    for r in range(k):
        head_r = headroom[r]
        for c in range(r + 1, k):
            head_c = headroom[c]
            limit = head_r if head_r < head_c else head_c
            if recipient[r][c] + 1 <= limit:
                rows.append(r)
                cols.append(c)
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)


def _candidate_block_numpy(
    headroom: np.ndarray, recipient: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    limit = np.minimum(headroom[:, None], headroom[None, :])
    valid = (recipient + 1) <= limit
    rows, cols = np.nonzero(np.triu(valid, k=1))
    return rows.astype(np.int64, copy=False), cols.astype(np.int64, copy=False)


def _candidate_block_numba_source(headroom, recipient):  # pragma: no cover
    k = headroom.shape[0]
    count = 0
    for r in range(k):
        for c in range(r + 1, k):
            limit = min(headroom[r], headroom[c])
            if recipient[r, c] + 1 <= limit:
                count += 1
    rows = np.empty(count, np.int64)
    cols = np.empty(count, np.int64)
    out = 0
    for r in range(k):
        for c in range(r + 1, k):
            limit = min(headroom[r], headroom[c])
            if recipient[r, c] + 1 <= limit:
                rows[out] = r
                cols[out] = c
                out += 1
    return rows, cols


# ---------------------------------------------------------------------- #
# Kernel 2: serve-prefix — how many head-of-line requests a round can serve
# ---------------------------------------------------------------------- #
def _serve_prefix_python(codes: np.ndarray, budgets: np.ndarray) -> int:
    """Length of the maximal servable head-of-line prefix.

    ``codes[i]`` is the consumer-pair index of pending request ``i`` (head
    first); ``budgets[p]`` is how many consumptions pair ``p`` can fund
    right now (its ledger count floor-divided by its distillation cost).
    Serving a request spends one unit of its own pair's budget and nothing
    else, so the greedy stop-at-first-failure prefix is the first position
    whose pair has exhausted its budget.
    """
    remaining = list(budgets)
    served = 0
    for code in codes:
        if remaining[code] <= 0:
            return served
        remaining[code] -= 1
        served += 1
    return served


#: Block size of the vectorized serve-prefix scan: large enough that the
#: per-block ``np.bincount`` dominates, small enough that pinpointing the
#: failure inside the failing block stays cheap.
_SERVE_PREFIX_BLOCK = 4096


def _serve_prefix_numpy(codes: np.ndarray, budgets: np.ndarray) -> int:
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


def _serve_prefix_numba_source(codes, budgets):  # pragma: no cover
    remaining = budgets.copy()
    served = 0
    for i in range(codes.shape[0]):
        code = codes[i]
        if remaining[code] <= 0:
            return served
        remaining[code] -= 1
        served += 1
    return served


def _maybe_jit(function):  # pragma: no cover - compiled only under numba
    if numba is None:
        return None
    return numba.njit(cache=False)(function)


register_kernel(
    KernelPair(
        name="balancer-candidates",
        summary="one repeater's preferable-swap block over partner headrooms",
        reference=_candidate_block_python,
        numpy_impl=_candidate_block_numpy,
        numba_impl=_maybe_jit(_candidate_block_numba_source),
    )
)
register_kernel(
    KernelPair(
        name="serve-prefix",
        summary="maximal servable head-of-line request prefix per round",
        reference=_serve_prefix_python,
        numpy_impl=_serve_prefix_numpy,
        numba_impl=_maybe_jit(_serve_prefix_numba_source),
    )
)


# ---------------------------------------------------------------------- #
# Dispatch helpers used by the integration sites
# ---------------------------------------------------------------------- #
def candidate_block(headroom, recipient) -> Tuple[np.ndarray, np.ndarray]:
    """Valid candidate (row, col) pairings (see ``balancer-candidates``)."""
    return get_kernel("balancer-candidates").dispatch()(headroom, recipient)


def servable_prefix(codes, budgets) -> int:
    """Maximal servable head-of-line prefix length (see ``serve-prefix``)."""
    return get_kernel("serve-prefix").dispatch()(codes, budgets)
