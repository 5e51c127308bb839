"""Run provenance: the git revision and machine a measurement came from.

Wall times are machine-relative and results are revision-relative, so
every recorded measurement carries both: the telemetry manifest and the
``perfbench/`` run reports import these two helpers from here.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict

import numpy as np


def machine_fingerprint() -> Dict[str, Any]:
    """Where a measurement was taken (wall times are machine-relative)."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count() or 1,
    }


def git_revision() -> str:
    """The repo's short git revision, or ``"unknown"`` outside a checkout."""
    for root in (Path(__file__).resolve().parents[3], Path.cwd()):
        if not (root / ".git").exists():
            continue
        try:
            completed = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            )
            return completed.stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            continue
    return "unknown"
