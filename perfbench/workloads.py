"""What each benchmark workload runs, derived from its seed alone.

Shared by the driver (``run.py``), the batch worker (``worker.py``), the
serve load generator (``serve_load.py``) and the reference recorder
(``record_references.py``), so all four agree on the inputs a seed
stands for.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
REFERENCES_PATH = HERE / "references.json"

#: Seeds whose result digests ``references.json`` records.
RECORDED_SEEDS = range(0, 32)

#: Default workload seed when ``--seed`` is not given.
DEFAULT_SEED = 1

BATCH_WORKLOAD = "paper-batch"
SERVE_WORKLOAD = "serve-mixed"
WORKLOADS: Tuple[str, ...] = (BATCH_WORKLOAD, SERVE_WORKLOAD)

#: The experiments a batch run calls, and the seed-derived inputs it runs
#: of each.  More than one input per experiment averages out the
#: input-to-input difference in work.
BATCH_EXPERIMENTS: Tuple[str, ...] = ("figure4", "resilience", "lp")
INPUTS_PER_EXPERIMENT = 2

#: Open-loop submission rate of the serve generator (per second).  It stays
#: under the daemon's default per-client admission bucket (10/s, burst 20).
SERVE_RATE = 8.0
#: Experiments the serve menu draws smoke-size jobs from, and the parameter
#: that tells the jobs of one experiment apart.
SERVE_EXPERIMENTS: Tuple[Tuple[str, str], ...] = (
    ("figure4", "master_seed"),
    ("traffic", "seed"),
    ("multicast", "seed"),
)
#: Repeats of an earlier job per block of the schedule; each block also
#: holds one new job of every experiment above.  Two repeats in five keep
#: the median submission a computed job (~15 ms) rather than a memo hit
#: (~1 ms), and the fixed block makes the mix the same for every seed, so
#: the latency percentiles do not flip between the two modes.
SERVE_REPEATS_PER_BLOCK = 2
SERVE_MENU_SEEDS = range(1, 129)


def batch_inputs(seed: int) -> List[Tuple[str, Dict[str, Any]]]:
    """The ``(experiment, keyword arguments)`` calls a batch run cycles through.

    Input ``i`` of every experiment uses the experiment seed
    ``seed * INPUTS_PER_EXPERIMENT + i``; the experiments alternate, so the
    repeats of each are spread over the whole window.
    """
    return [
        (experiment, experiment_params(experiment, seed * INPUTS_PER_EXPERIMENT + index))
        for index in range(INPUTS_PER_EXPERIMENT)
        for experiment in BATCH_EXPERIMENTS
    ]


def experiment_params(experiment: str, seed: int) -> Dict[str, Any]:
    """Keyword arguments of one ``Experiment.run`` call, about a second of work.

    * ``figure4`` at paper size (|N|=25, 35 consumer pairs, 50 requests,
      ``naive`` engine) on the wraparound grid at every D of the figure.
    * ``resilience`` (``link-churn`` against the static baseline, both
      engines cross-checked) at |N|=25.
    * ``lp`` at |N|=25 with every objective, on the grid at D=1 (6 of the
      default's 24 programs).
    """
    if experiment == "figure4":
        return {
            "topologies": ("grid",),
            "distillation_values": (1.0, 2.0, 3.0),
            "master_seed": seed,
        }
    if experiment == "resilience":
        return {"sizes": (25,), "master_seed": seed}
    if experiment == "lp":
        return {"topologies": ("grid",), "distillation_values": (1.0,), "seed": seed}
    raise KeyError(f"no batch input defined for experiment {experiment!r}")


def serve_menu() -> List[Tuple[str, str, Dict[str, Any]]]:
    """Every distinct serve job as ``(reference key, experiment, params)``."""
    return [
        (f"{experiment}:{value}", experiment, {"smoke": True, key: value})
        for value in SERVE_MENU_SEEDS
        for experiment, key in SERVE_EXPERIMENTS
    ]


def serve_schedule(seed: int, seconds: float) -> List[Tuple[float, str, str, Dict[str, Any]]]:
    """The open-loop schedule: ``(send offset s, reference key, experiment, params)``.

    Blocks of one new job per experiment plus
    :data:`SERVE_REPEATS_PER_BLOCK` repeats of earlier jobs, in a seeded
    order; the seed also picks which menu jobs and which repeats.
    """
    rng = random.Random(seed)
    fresh = {experiment: [] for experiment, _key in SERVE_EXPERIMENTS}
    for job in serve_menu():
        fresh[job[1]].append(job)
    for jobs in fresh.values():
        rng.shuffle(jobs)
    sent: List[Tuple[str, str, Dict[str, Any]]] = []
    slots: List[Tuple[str, str, Dict[str, Any]]] = []
    total = max(1, int(seconds * SERVE_RATE))
    block_size = len(fresh) + SERVE_REPEATS_PER_BLOCK
    if total > len(SERVE_MENU_SEEDS) * block_size:
        raise ValueError(
            f"a {seconds:g} s schedule needs more distinct jobs than the serve menu holds"
        )
    while len(slots) < total:
        block: List[Any] = list(fresh) + [None] * SERVE_REPEATS_PER_BLOCK
        if sent:
            rng.shuffle(block)
        for experiment in block:
            job = rng.choice(sent) if experiment is None else fresh[experiment].pop()
            if experiment is not None:
                sent.append(job)
            slots.append(job)
    return [(slot / SERVE_RATE,) + job for slot, job in enumerate(slots[:total])]


def tail_percentile(values: List[float]) -> Tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and its rank.

    With twenty samples or fewer that percentile would not lie above the
    median, so the maximum (rank 100) is given instead.
    """
    ordered = sorted(values)
    if len(ordered) <= 20:
        return ordered[-1], 100
    return ordered[len(ordered) - 11], int(100 * (len(ordered) - 10) / len(ordered))


def payload_digest(payload: Any) -> str:
    """sha256 of a result payload in canonical JSON (sorted keys, no spaces)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> Dict[str, Any]:
    """The recorded digests (empty tables when none were recorded yet)."""
    if not REFERENCES_PATH.exists():
        return {"batch": {}, "serve": {}}
    return json.loads(REFERENCES_PATH.read_text(encoding="utf-8"))
