"""Vectorized Werner-state algebra over whole arrays of pair fidelities.

:mod:`repro.quantum.fidelity` operates one pair at a time, which is a
Python-loop bottleneck for Monte-Carlo studies that evolve thousands of
pairs per step (coherence sweeps, capacity planning, fidelity-distribution
estimates).  This module provides the same closed forms as NumPy array
operations: every function accepts array inputs of any shape, broadcasts
scalars, and matches its scalar counterpart element-wise to floating-point
round-off (enforced by a property test in ``tests/test_quantum_batch.py``).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np


ArrayLike = Union[float, np.ndarray]


def _as_fidelity_array(values: ArrayLike, name: str = "fidelity") -> np.ndarray:
    """Validate and convert fidelities to a float64 array (broadcast-ready)."""
    array = np.asarray(values, dtype=np.float64)
    if array.size and (
        np.any(array < 0.25 - 1e-12) or np.any(array > 1.0 + 1e-12)
    ):
        bad = array[(array < 0.25 - 1e-12) | (array > 1.0 + 1e-12)].flat[0]
        raise ValueError(f"{name} must be within [0.25, 1], got {bad}")
    return array


# ---------------------------------------------------------------------- #
# Fidelity evolution
# ---------------------------------------------------------------------- #
def swap_fidelity_batch(fidelity_a: ArrayLike, fidelity_b: ArrayLike) -> np.ndarray:
    """Element-wise swap composition ``F = F_a F_b + (1-F_a)(1-F_b)/3``.

    Vectorized counterpart of :func:`repro.quantum.fidelity.swap_fidelity`.
    """
    a = _as_fidelity_array(fidelity_a, "fidelity_a")
    b = _as_fidelity_array(fidelity_b, "fidelity_b")
    return a * b + (1.0 - a) * (1.0 - b) / 3.0


def chained_swap_fidelity_batch(fidelities: np.ndarray, axis: int = -1) -> np.ndarray:
    """End-to-end fidelity of many swap chains at once.

    ``fidelities`` holds one chain per row (by default): an array of shape
    ``(batch, hops)`` reduces along ``axis`` to shape ``(batch,)``.  The
    Werner swap rule is associative and commutative, so a left fold along
    the axis reproduces :func:`repro.quantum.fidelity.chained_swap_fidelity`
    exactly.
    """
    array = _as_fidelity_array(fidelities)
    if array.shape == () or array.shape[axis] == 0:
        raise ValueError("chained_swap_fidelity_batch requires at least one pair per chain")
    moved = np.moveaxis(array, axis, 0)
    result = moved[0]
    for hop in moved[1:]:
        result = result * hop + (1.0 - result) * (1.0 - hop) / 3.0
    return result


def depolarize_batch(fidelity: ArrayLike, survival: ArrayLike) -> np.ndarray:
    """Element-wise depolarising channel ``F' = s F + (1-s)/4``.

    Vectorized counterpart of :func:`repro.quantum.fidelity.depolarize`.
    """
    f = _as_fidelity_array(fidelity)
    s = np.asarray(survival, dtype=np.float64)
    if s.size and (np.any(s < 0.0) or np.any(s > 1.0)):
        bad = s[(s < 0.0) | (s > 1.0)].flat[0]
        raise ValueError(f"survival must be within [0, 1], got {bad}")
    return s * f + (1.0 - s) * 0.25


def decohered_fidelity_batch(
    initial_fidelity: ArrayLike, elapsed: ArrayLike, coherence_time: float
) -> np.ndarray:
    """Exponential memory decay ``F(t) = 1/4 + (F0 - 1/4) e^{-t/T}`` for a batch.

    Vectorized counterpart of
    :func:`repro.quantum.fidelity.decohered_fidelity`; ``elapsed`` may be a
    scalar or a per-pair array (pairs stored at different times).
    """
    t = np.asarray(elapsed, dtype=np.float64)
    if t.size and np.any(t < 0):
        raise ValueError(f"elapsed time must be non-negative, got {t[t < 0].flat[0]}")
    if coherence_time <= 0:
        raise ValueError(f"coherence_time must be positive, got {coherence_time}")
    return depolarize_batch(initial_fidelity, np.exp(-t / coherence_time))


def teleportation_fidelity_batch(pair_fidelity: ArrayLike) -> np.ndarray:
    """Average teleportation fidelity ``(2F + 1)/3`` for a batch of resource pairs."""
    return (2.0 * _as_fidelity_array(pair_fidelity) + 1.0) / 3.0


# ---------------------------------------------------------------------- #
# Probabilistic outcomes: swapping and distillation
# ---------------------------------------------------------------------- #
def swap_outcomes_batch(
    fidelity_a: ArrayLike,
    fidelity_b: ArrayLike,
    rng: Optional[np.random.Generator] = None,
    measurement_efficiency: float = 1.0,
    gate_fidelity: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Attempt one entanglement swap per element of a batch.

    Each slot ``i`` swaps a pair of fidelity ``fidelity_a[i]`` with one of
    ``fidelity_b[i]``: the output is the Werner composition, depolarised by
    ``gate_fidelity`` for imperfect local operations, and the Bell
    measurement succeeds with ``measurement_efficiency``.

    Returns
    -------
    tuple
        ``(success, fidelity)`` arrays; ``fidelity[i]`` is meaningful only
        where ``success[i]`` (a failed linear-optics Bell measurement
        destroys both inputs and produces nothing).
    """
    if not 0.0 < measurement_efficiency <= 1.0:
        raise ValueError(
            f"measurement_efficiency must be in (0, 1], got {measurement_efficiency}"
        )
    if not 0.0 < gate_fidelity <= 1.0:
        raise ValueError(f"gate_fidelity must be in (0, 1], got {gate_fidelity}")
    ideal = swap_fidelity_batch(fidelity_a, fidelity_b)
    produced = depolarize_batch(ideal, gate_fidelity)
    if measurement_efficiency >= 1.0:
        success = np.ones(produced.shape, dtype=bool)
    else:
        generator = rng if rng is not None else np.random.default_rng()
        success = generator.random(produced.shape) <= measurement_efficiency
    return success, produced


def bbpssw_success_probability_batch(fidelity: ArrayLike) -> np.ndarray:
    """BBPSSW round success probability ``F^2 + 2F(1-F)/3 + 5((1-F)/3)^2``, batched."""
    f = _as_fidelity_array(fidelity)
    noise = (1.0 - f) / 3.0
    return f**2 + 2.0 * f * noise + 5.0 * noise**2


def bbpssw_output_fidelity_batch(fidelity: ArrayLike) -> np.ndarray:
    """BBPSSW post-success fidelity ``(F^2 + ((1-F)/3)^2) / p``, batched."""
    f = _as_fidelity_array(fidelity)
    noise = (1.0 - f) / 3.0
    return (f**2 + noise**2) / bbpssw_success_probability_batch(f)


def distillation_outcomes_batch(
    fidelity: ArrayLike, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """One BBPSSW purification attempt per batch slot.

    Each slot consumes two pairs of the given fidelity; the round succeeds
    with :func:`bbpssw_success_probability_batch` and then yields one pair
    at :func:`bbpssw_output_fidelity_batch`.

    Returns
    -------
    tuple
        ``(success, fidelity)`` arrays; ``fidelity[i]`` is meaningful only
        where ``success[i]``.
    """
    f = _as_fidelity_array(fidelity)
    probability = bbpssw_success_probability_batch(f)
    success = rng.random(f.shape) <= probability
    return success, bbpssw_output_fidelity_batch(f)
