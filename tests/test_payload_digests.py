"""Byte-identity gate: the CI smoke payloads keep their recorded digests.

Each case runs one CI smoke command in process with ``--format json
--output -`` and compares the sha256 of the printed payload with the digest
checked in at ``tests/golden/payload_digests.json``.  A refactor that is
meant to move no result byte must leave every digest as it is; a change
that moves results on purpose re-records them with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_payload_digests.py

and commits the diff together with why the bytes moved.

Every command runs at its CI size with ``--workers 1`` where the experiment
takes it (``classical`` has no worker pool).  One more case runs ``figure4``
on a pool of two workers and checks it against the same ``figure4`` digest:
the merge of pooled results must not move a byte.  Two experiments stay out:
``lp``, whose payload carries raw HiGHS floats that may differ across the
scipy versions CI installs, and ``scaling``, whose ``seconds`` column is
wall-clock time.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.cli import main

DIGEST_FILE = Path(__file__).resolve().parent / "golden" / "payload_digests.json"

#: The CI smoke invocations, keyed by a short name.
SMOKE_COMMANDS = {
    "figure4": ["figure4", "--nodes", "9", "--requests", "6", "--distillation", "1", "--workers", "1"],
    "figure5": ["figure5", "--sizes", "9", "--requests", "6", "--workers", "1"],
    "comparison": ["comparison", "--nodes", "9", "--requests", "6", "--workers", "1"],
    "ablations": ["ablations", "--nodes", "9", "--requests", "6", "--workers", "1"],
    "classical": ["classical", "--nodes", "9"],
    "resilience": ["resilience", "--smoke", "--workers", "1"],
    "traffic": ["traffic", "--smoke", "--workers", "1"],
    "multicast": ["multicast", "--smoke", "--workers", "1"],
}


def _payload_digest(argv, capsys) -> str:
    capsys.readouterr()
    assert main([*argv, "--format", "json", "--output", "-"]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def _recorded() -> dict:
    if not DIGEST_FILE.is_file():
        return {}
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SMOKE_COMMANDS))
def test_smoke_payload_matches_recorded_digest(name, capsys):
    digest = _payload_digest(SMOKE_COMMANDS[name], capsys)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        recorded = _recorded()
        recorded[name] = digest
        DIGEST_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        pytest.skip(f"payload digest for {name} rewritten (REPRO_UPDATE_GOLDEN set)")
    recorded = _recorded()
    assert name in recorded, (
        f"no digest recorded for {name}; record it with "
        "REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_payload_digests.py"
    )
    assert digest == recorded[name], (
        f"`repro {' '.join(SMOKE_COMMANDS[name])} --format json` moved bytes: "
        f"sha256 {digest}, recorded {recorded[name]}"
    )


def test_pooled_figure4_payload_matches_the_in_process_digest(capsys):
    argv = [*SMOKE_COMMANDS["figure4"][:-2], "--workers", "2"]
    assert argv.count("--workers") == 1
    digest = _payload_digest(argv, capsys)
    recorded = _recorded()["figure4"]
    assert digest == recorded, (
        f"`repro {' '.join(argv)} --format json` moved bytes against the in-process "
        f"run: sha256 {digest}, recorded {recorded}"
    )
