"""Record the reference result digests the benchmark checks runs against.

Runs every batch input of each seed in :data:`workloads.RECORDED_SEEDS`,
and every job of the serve menu, once,
in-process and one-shot, with the same environment hygiene as ``run.py``,
and writes ``references.json``.
Re-record only when a change is meant to alter results.  Run from the root
of a checkout (takes several minutes)::

    python3 perfbench/record_references.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import PINNED_KERNELS, SCRUBBED_ENV  # noqa: E402
from workloads import (  # noqa: E402
    RECORDED_SEEDS,
    REFERENCES_PATH,
    batch_inputs,
    payload_digest,
    serve_menu,
)


def main() -> int:
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    os.environ["REPRO_KERNELS"] = PINNED_KERNELS
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.experiments.registry import get_experiment
    from repro.experiments.schema import validate_payload
    from repro.perf.bench import git_revision

    def digest(experiment: str, params) -> str:
        payload = json.loads(get_experiment(experiment).run(**params).to_json())
        validate_payload(payload)
        return payload_digest(payload)

    batch = {
        str(seed): [digest(experiment, params) for experiment, params in batch_inputs(seed)]
        for seed in RECORDED_SEEDS
    }
    print("recorded the batch inputs", flush=True)
    serve = {key: digest(experiment, params) for key, experiment, params in serve_menu()}
    references = {
        "revision": git_revision(),
        "kernels": PINNED_KERNELS,
        "batch": batch,
        "serve": serve,
    }
    REFERENCES_PATH.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCES_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
