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
the merge of pooled results must not move a byte.  ``scaling`` stays out:
its ``seconds`` column is wall-clock time.

``lp`` prints raw HiGHS floats, which another scipy (and the HiGHS build it
ships) may round or place differently, so its rule has two parts.  Its
digest is recorded per scipy version, under ``lp@scipy-<version>``, and
checked when the installed version has one.  Every run, whatever the
version, is also compared with the payload recorded at
``tests/golden/lp_payload.json``: the identifying and flag columns exactly,
and ``objective_value``, ``alpha`` and the ``series`` at ``math.isclose``
with ``rel_tol=1e-6, abs_tol=1e-9``.  The three rate totals are left out
of that comparison: the programs are degenerate, so several optimal
vertices share an optimum, and another solver build may return another
(HiGHS's interior-point method moves the totals of 16 of the 24 rows).
``lp`` runs in process and on a pool of two workers, under the same rule.
Re-recording writes the installed version's digest and the payload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from repro.cli import main

DIGEST_FILE = Path(__file__).resolve().parent / "golden" / "payload_digests.json"
LP_PAYLOAD_FILE = DIGEST_FILE.with_name("lp_payload.json")

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

#: The ``lp`` CI smoke invocation; its digest is keyed by scipy version.
LP_COMMAND = ["lp", "--nodes", "9", "--workers", "1"]

#: ``lp`` columns that a degenerate optimum leaves to the solver's choice of vertex.
LP_VERTEX_COLUMNS = ("total_swap_rate", "total_generation_rate", "total_consumption_rate")

#: How far an ``lp`` float may move from the recorded payload.
LP_TOLERANCE = dict(rel_tol=1e-6, abs_tol=1e-9)


def _payload(argv, capsys) -> str:
    capsys.readouterr()
    assert main([*argv, "--format", "json", "--output", "-"]) == 0
    return capsys.readouterr().out


def _payload_digest(argv, capsys) -> str:
    return hashlib.sha256(_payload(argv, capsys).encode("utf-8")).hexdigest()


def _recorded() -> dict:
    if not DIGEST_FILE.is_file():
        return {}
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def _record(name: str, digest: str) -> None:
    recorded = _recorded()
    recorded[name] = digest
    DIGEST_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", sorted(SMOKE_COMMANDS))
def test_smoke_payload_matches_recorded_digest(name, capsys):
    digest = _payload_digest(SMOKE_COMMANDS[name], capsys)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        _record(name, digest)
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


def _lp_digest_name() -> str:
    import scipy

    return f"lp@scipy-{scipy.__version__}"


def _assert_lp_payload_close(payload: dict, recorded: dict) -> None:
    """``payload`` matches ``recorded`` under the stated ``lp`` rule."""

    def close(actual, expected, where) -> None:
        if isinstance(expected, float):
            assert isinstance(actual, float), where
            assert math.isclose(actual, expected, **LP_TOLERANCE), (where, actual, expected)
        else:
            assert actual == expected, where

    assert payload["columns"] == recorded["columns"]
    assert len(payload["rows"]) == len(recorded["rows"])
    for index, (row, expected_row) in enumerate(zip(payload["rows"], recorded["rows"])):
        for column, actual, expected in zip(recorded["columns"], row, expected_row):
            if column not in LP_VERTEX_COLUMNS:
                close(actual, expected, (index, column))
    assert payload["series"].keys() == recorded["series"].keys()
    for topology, points in recorded["series"].items():
        assert payload["series"][topology].keys() == points.keys()
        for point, value in points.items():
            close(payload["series"][topology][point], value, (topology, point))


def _check_lp(argv, capsys) -> None:
    text = _payload(argv, capsys)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    name = _lp_digest_name()
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        _record(name, digest)
        LP_PAYLOAD_FILE.write_text(text, encoding="utf-8")
        pytest.skip(f"payload digest for {name} rewritten (REPRO_UPDATE_GOLDEN set)")
    _assert_lp_payload_close(json.loads(text), json.loads(LP_PAYLOAD_FILE.read_text(encoding="utf-8")))
    recorded = _recorded()
    if name in recorded:
        assert digest == recorded[name], (
            f"`repro {' '.join(argv)} --format json` moved bytes: "
            f"sha256 {digest}, recorded {recorded[name]} for {name}"
        )


def test_lp_payload_matches_the_recorded_payload(capsys):
    _check_lp(LP_COMMAND, capsys)


def test_pooled_lp_payload_matches_the_recorded_payload(capsys):
    argv = [*LP_COMMAND[:-2], "--workers", "2"]
    assert argv.count("--workers") == 1
    _check_lp(argv, capsys)


def test_lp_tolerance_rule_ignores_only_the_vertex_columns():
    recorded = json.loads(LP_PAYLOAD_FILE.read_text(encoding="utf-8"))
    columns = recorded["columns"]
    row = next(index for index, row in enumerate(recorded["rows"]) if row[columns.index("alpha")])

    def moved(column: str, factor: float) -> dict:
        payload = json.loads(json.dumps(recorded))
        payload["rows"][row][columns.index(column)] *= factor
        return payload

    _assert_lp_payload_close(moved("objective_value", 1 + 1e-9), recorded)
    for column in LP_VERTEX_COLUMNS:
        _assert_lp_payload_close(moved(column, 2.0), recorded)
    for column in ("objective_value", "alpha"):
        with pytest.raises(AssertionError):
            _assert_lp_payload_close(moved(column, 1 + 1e-4), recorded)
