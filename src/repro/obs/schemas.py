"""JSON schemas for the telemetry JSONL stream and the Chrome trace export.

One ``--telemetry FILE`` stream is newline-delimited JSON: a ``manifest``
record first, then ``span`` records and ``metric`` records.  Each record
kind has its own schema below (the subset validator in
:mod:`repro.experiments.schema` has no ``oneOf``, so
:func:`validate_record` dispatches on the ``type`` field in code); the
combined document checked in at ``docs/schemas/telemetry.schema.json`` is
:data:`TELEMETRY_SCHEMA` (a drift test keeps the two identical).

Usable as a CI filter over a whole stream::

    PYTHONPATH=src python -m repro.obs.schemas t.jsonl
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, Iterable

from repro.experiments.schema import SchemaError, validate_payload
from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION

#: Record kinds a telemetry stream may carry, in stream order.
RECORD_TYPES = ("manifest", "span", "metric")

MANIFEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "type",
        "schema_version",
        "created",
        "git_rev",
        "python",
        "platform",
    ],
    "properties": {
        "type": {"type": "string", "enum": ["manifest"]},
        "schema_version": {"type": "integer", "enum": [TELEMETRY_SCHEMA_VERSION]},
        "created": {"type": "number"},
        "experiment": {"type": ["string", "null"]},
        "git_rev": {"type": "string"},
        "python": {"type": "string"},
        "platform": {"type": "string"},
        "spans_dropped": {"type": "integer"},
    },
}

SPAN_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "type",
        "name",
        "start",
        "duration",
        "pid",
        "thread",
        "span_id",
        "depth",
        "attrs",
    ],
    "properties": {
        "type": {"type": "string", "enum": ["span"]},
        "name": {"type": "string"},
        "start": {"type": "number"},
        "duration": {"type": "number"},
        "pid": {"type": "integer"},
        "thread": {"type": "integer"},
        "span_id": {"type": "integer"},
        "parent_id": {"type": ["integer", "null"]},
        "depth": {"type": "integer"},
        "attrs": {"type": "object"},
    },
}

METRIC_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["type", "kind", "name", "value"],
    "properties": {
        "type": {"type": "string", "enum": ["metric"]},
        "kind": {"type": "string", "enum": ["counter", "gauge"]},
        "name": {"type": "string"},
        "value": {"type": "number"},
    },
}

_RECORD_SCHEMAS = {
    "manifest": MANIFEST_SCHEMA,
    "span": SPAN_SCHEMA,
    "metric": METRIC_SCHEMA,
}

#: The document checked in at ``docs/schemas/telemetry.schema.json``.
TELEMETRY_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro telemetry stream",
    "description": (
        "Newline-delimited JSON written by `repro <experiment> --telemetry "
        "FILE`: one manifest record (run provenance), then span records "
        "(nestable wall-clock intervals) and metric records (counter/gauge "
        "scalars).  Each line validates against the definition matching its "
        "`type` field."
    ),
    "telemetry_schema_version": TELEMETRY_SCHEMA_VERSION,
    "definitions": {
        "manifest": MANIFEST_SCHEMA,
        "span": SPAN_SCHEMA,
        "metric": METRIC_SCHEMA,
    },
}

CHROME_TRACE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "ts", "dur", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    "ph": {"type": "string", "enum": ["X"]},
                    "ts": {"type": "number"},
                    "dur": {"type": "number"},
                    "pid": {"type": "integer"},
                    "tid": {"type": "integer"},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"type": "string"},
    },
}


def validate_record(record: Any) -> None:
    """Validate one telemetry JSONL record against its ``type``'s schema."""
    if not isinstance(record, dict):
        raise SchemaError(f"telemetry record must be an object, got {type(record).__name__}")
    kind = record.get("type")
    schema = _RECORD_SCHEMAS.get(kind)
    if schema is None:
        raise SchemaError(
            f"telemetry record 'type' is {kind!r}, expected one of {list(RECORD_TYPES)}"
        )
    validate_payload(record, schema=schema)


def validate_stream(records: Iterable[Any]) -> int:
    """Validate a whole stream; the first record must be the manifest.

    Returns the number of records validated.
    """
    count = 0
    for index, record in enumerate(records):
        validate_record(record)
        if index == 0 and record.get("type") != "manifest":
            raise SchemaError(
                f"telemetry stream must open with a manifest record, "
                f"got type {record.get('type')!r}"
            )
        count += 1
    if count == 0:
        raise SchemaError("telemetry stream is empty (no manifest record)")
    return count


def validate_chrome_trace(payload: Any) -> None:
    """Validate a Chrome trace-event export (the `repro obs chrome` output)."""
    validate_payload(payload, schema=CHROME_TRACE_SCHEMA)


def main(argv=None) -> int:
    """Validate a telemetry JSONL file (or ``-`` for stdin) line by line."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 1:
        print("usage: python -m repro.obs.schemas <telemetry.jsonl | ->", file=sys.stderr)
        return 2
    raw = sys.stdin.read() if argv[0] == "-" else open(argv[0], encoding="utf-8").read()
    records = []
    try:
        for lineno, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise SchemaError(f"line {lineno}: not a JSON record: {error}") from None
        count = validate_stream(records)
    except SchemaError as error:
        print(f"telemetry schema violation: {error}", file=sys.stderr)
        return 1
    print(f"ok: valid telemetry stream ({count} record(s))")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
