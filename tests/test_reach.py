"""``scripts/reach.py``: the call tracer that lists never-called functions."""

from __future__ import annotations

import re
import shlex
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def test_repro_list_reaches_the_registry_and_not_the_round_loop():
    command = f"{shlex.quote(sys.executable)} -m repro --list"
    completed = subprocess.run(
        [sys.executable, str(SCRIPT), command],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = completed.stdout.splitlines()
    total = re.fullmatch(
        r"reach: (\d+) of (\d+) functions called; (\d+) never called \(\d+ lines\)", lines[-1]
    )
    assert total, lines[-1]
    called, functions, never = map(int, total.groups())
    assert 0 < called < functions and called + never == functions
    never_called = {line.split()[1] for line in lines if line.startswith("  ")}
    assert "experiment_names" not in never_called
    assert "SwappingProtocol.run" in never_called
