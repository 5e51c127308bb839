#!/usr/bin/env python
"""Regenerate the paper's Figure 4 and Figure 5 series.

Runs the same sweeps as the benchmark harness and prints the two figures as
plain-text tables (one line per topology family).  Pass ``--full`` (or set
``REPRO_FULL=1``) for the full paper-scale sweep; the default is a quicker
sweep suitable for a laptop.

Run with::

    python examples/reproduce_figures.py                 # quick sweep
    python examples/reproduce_figures.py --full          # full sweep (slow)
    python examples/reproduce_figures.py --workers 8     # parallel sweep
    python examples/reproduce_figures.py --cache         # reuse cached trials
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _positive_int(value):
    workers = int(value)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return workers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="run the full paper-scale sweep")
    parser.add_argument("--seeds", type=int, default=1, help="seeded trials per point")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="worker processes (default: every usable CPU; results are identical)",
    )
    parser.add_argument(
        "--cache", action="store_true", help="reuse previously computed trials from disk"
    )
    args = parser.parse_args(argv)
    if args.full:
        os.environ["REPRO_FULL"] = "1"

    # Import after REPRO_FULL is set so the sweep presets pick it up.
    from repro.experiments import RuntimeOptions, get_experiment
    from repro.runtime import ResultCache

    # The programmatic experiment API: look the experiment up in the
    # registry and run it with keyword parameters from its ParamSpec table
    # (an int `seeds` means "that many trials", exactly like --seeds).
    runtime = RuntimeOptions(
        workers=args.workers, cache=ResultCache() if args.cache else None
    )
    for name in ("figure4", "figure5"):
        start = time.time()
        result = get_experiment(name).run(runtime=runtime, seeds=args.seeds)
        print(result.format_report())
        print(f"\n({name} sweep took {time.time() - start:.1f}s)\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
