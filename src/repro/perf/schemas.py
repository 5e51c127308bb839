"""JSON schema for the report ``repro profile <experiment>`` emits.

:data:`PROFILE_SCHEMA` is checked by the dependency-free subset validator
in :mod:`repro.experiments.schema`.  Usable as a CI filter::

    PYTHONPATH=src python -m repro profile figure4 --smoke --format json \\
        | PYTHONPATH=src python -m repro.perf.schemas -
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict

from repro.experiments.schema import SchemaError, validate_payload

#: Version stamp of the profile report layout.
PERF_SCHEMA_VERSION = 2

PROFILE_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro profile report",
    "description": (
        "cProfile aggregation of one registered experiment run, as emitted "
        "by `repro profile <experiment>`: top functions by cumulative time "
        "plus a per-module rollup."
    ),
    "type": "object",
    "required": [
        "schema_version",
        "kind",
        "experiment",
        "smoke",
        "total_seconds",
        "total_calls",
        "hotspots",
        "modules",
    ],
    "properties": {
        "schema_version": {"type": "integer", "enum": [PERF_SCHEMA_VERSION]},
        "kind": {"type": "string", "enum": ["profile"]},
        "experiment": {"type": "string"},
        "smoke": {"type": "boolean"},
        "total_seconds": {"type": "number"},
        "total_calls": {"type": "integer"},
        "hotspots": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["function", "module", "calls", "tottime", "cumtime"],
                "properties": {
                    "function": {"type": "string"},
                    "module": {"type": "string"},
                    "calls": {"type": "integer"},
                    "tottime": {"type": "number"},
                    "cumtime": {"type": "number"},
                },
            },
        },
        "modules": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["module", "tottime"],
                "properties": {
                    "module": {"type": "string"},
                    "tottime": {"type": "number"},
                },
            },
        },
    },
}


def validate_profile(payload: Any) -> None:
    """Raise :class:`SchemaError` unless ``payload`` is a valid profile report."""
    validate_payload(payload, schema=PROFILE_SCHEMA)


def main(argv=None) -> int:
    """Validate a profile report from a file (or ``-`` for stdin)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 1:
        print("usage: python -m repro.perf.schemas <report.json | ->", file=sys.stderr)
        return 2
    raw = sys.stdin.read() if argv[0] == "-" else open(argv[0], encoding="utf-8").read()
    try:
        validate_profile(json.loads(raw))
    except (json.JSONDecodeError, SchemaError) as error:
        print(f"perf schema violation: {error}", file=sys.stderr)
        return 1
    print("ok: valid profile payload")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
