"""The ``repro serve`` wire protocol.

One request or response per line, each a JSON object (newline-delimited
JSON): the same dependency-light convention the experiment results already
use, so any language with a socket and a JSON parser is a client.

Requests carry an ``op`` verb -- `submit`, `status`, `result`, `cancel`,
`list`, `health`, `stats`, or `metrics` -- plus the verb's fields; responses echo the
``op`` (and the optional client correlation ``id``) and carry ``ok`` plus
either the payload or a structured ``error`` object with an HTTP-flavoured
``code`` (``400`` malformed request, ``404`` unknown job/experiment,
``408`` wait timeout, ``429`` admission rejection, ``500`` worker crash,
``503`` draining).  Progress events pushed to streaming subscribers are
objects with an ``event`` key instead of ``ok``, so a blocking client can
always tell pushes from replies.

Everything on the wire validates against :data:`REQUEST_SCHEMA`,
:data:`RESPONSE_SCHEMA` or :data:`EVENT_SCHEMA` -- the same JSON-Schema
subset :mod:`repro.experiments.schema` validates, checked in for external
consumers at ``docs/schemas/serve-protocol.schema.json`` (a test asserts
the two never drift).  Job *results* inside a ``result`` response are
ordinary experiment-result payloads conforming to
``docs/schemas/experiment-result.schema.json`` -- the PR-4 schema is the
wire format, exactly as the daemon promises.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

#: Version stamp of the wire protocol (bump on breaking changes).
SERVE_PROTOCOL_VERSION = 1

#: Every request verb the daemon answers.
VERBS: Tuple[str, ...] = (
    "submit",
    "status",
    "result",
    "cancel",
    "list",
    "health",
    "stats",
    "metrics",
)

#: The job lifecycle states a response's ``state`` field can carry.
JOB_STATES: Tuple[str, ...] = ("queued", "running", "done", "error", "cancelled")

#: The daemon lifecycle states ``health`` reports.
DAEMON_STATES: Tuple[str, ...] = ("serving", "draining", "stopped")

#: HTTP-flavoured error codes with their machine-readable ``kind`` labels.
ERROR_KINDS: Dict[int, str] = {
    400: "bad-request",
    404: "not-found",
    408: "wait-timeout",
    409: "conflict",
    429: "rejected",
    500: "worker-error",
    503: "draining",
}

REQUEST_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["op"],
    "properties": {
        "op": {"type": "string", "enum": list(VERBS)},
        "id": {"type": "string"},
        "client": {"type": "string"},
        "experiment": {"type": "string"},
        "params": {"type": "object"},
        "priority": {"type": "integer"},
        "stream": {"type": "boolean"},
        "job": {"type": "string"},
        "wait": {"type": "boolean"},
        "timeout": {"type": ["number", "null"]},
    },
}

RESPONSE_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["ok", "op"],
    "properties": {
        "ok": {"type": "boolean"},
        # Not an enum: unparseable requests are answered with op "invalid".
        "op": {"type": "string"},
        "id": {"type": ["string", "null"]},
        "job": {"type": "string"},
        "state": {"type": "string", "enum": list(JOB_STATES) + list(DAEMON_STATES)},
        "cached": {"type": "boolean"},
        "result": {"type": "object"},
        "jobs": {"type": "array", "items": {"type": "object"}},
        "stats": {"type": "object"},
        # `metrics` responses: the Prometheus-style text exposition.
        "exposition": {"type": "string"},
        "error": {
            "type": "object",
            "required": ["code", "kind", "message"],
            "properties": {
                "code": {"type": "integer"},
                "kind": {"type": "string", "enum": sorted(ERROR_KINDS.values())},
                "message": {"type": "string"},
                "retry_after": {"type": ["number", "null"]},
            },
        },
    },
}

EVENT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["event", "job"],
    "properties": {
        "event": {"type": "string", "enum": ["progress", "end"]},
        "job": {"type": "string"},
        "state": {"type": "string", "enum": list(JOB_STATES)},
        "completed": {"type": "integer"},
        "total": {"type": "integer"},
    },
}

#: The document checked in at ``docs/schemas/serve-protocol.schema.json``.
PROTOCOL_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro serve wire protocol",
    "description": (
        "Newline-delimited JSON exchanged with the `repro serve` daemon: "
        "request and response objects plus the progress events pushed to "
        "streaming subscribers.  Job results embedded in `result` responses "
        "follow experiment-result.schema.json."
    ),
    "protocol_version": SERVE_PROTOCOL_VERSION,
    "definitions": {
        "request": REQUEST_SCHEMA,
        "response": RESPONSE_SCHEMA,
        "event": EVENT_SCHEMA,
    },
}


class ProtocolError(ValueError):
    """A request violated the wire protocol (carries the error ``code``)."""

    def __init__(self, code: int, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.code = code
        self.kind = ERROR_KINDS[code]
        self.retry_after = retry_after


def encode(message: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON plus the terminating newline.

    Keys stay in insertion order -- parsers never care, and an embedded
    experiment-result payload keeps its authoring order, so a served result
    renders byte-identically to the same result from a one-shot run.
    """
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def parse_request(line: str) -> Dict[str, Any]:
    """Decode and validate one request line (:class:`ProtocolError` on violation)."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(400, f"malformed JSON request: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(400, f"request must be a JSON object, got {type(message).__name__}")
    op = message.get("op")
    if op not in VERBS:
        raise ProtocolError(400, f"unknown op {op!r}; expected one of {', '.join(VERBS)}")
    # Full schema check (field types) after the op gate so the message names
    # the verb whenever possible.
    from repro.experiments.schema import SchemaError, validate_payload

    try:
        validate_payload(message, schema=REQUEST_SCHEMA)
    except SchemaError as error:
        raise ProtocolError(400, f"invalid {op} request: {error}") from None
    return message


def ok_response(op: str, request_id: Optional[str] = None, **fields: Any) -> Dict[str, Any]:
    """A success response for ``op``, echoing the correlation ``id``."""
    response: Dict[str, Any] = {"ok": True, "op": op}
    if request_id is not None:
        response["id"] = request_id
    response.update(fields)
    return response


def error_response(
    op: str,
    code: int,
    message: str,
    request_id: Optional[str] = None,
    **fields: Any,
) -> Dict[str, Any]:
    """A structured error response (``code`` must be in :data:`ERROR_KINDS`)."""
    response: Dict[str, Any] = {
        "ok": False,
        "op": op,
        "error": {"code": code, "kind": ERROR_KINDS[code], "message": message},
    }
    if request_id is not None:
        response["id"] = request_id
    for key, value in fields.items():
        if key == "retry_after":
            response["error"]["retry_after"] = value
        else:
            response[key] = value
    return response


def progress_event(job: str, state: str, completed: int, total: int) -> Dict[str, Any]:
    """A ``progress`` push for streaming subscribers."""
    return {
        "event": "progress",
        "job": job,
        "state": state,
        "completed": completed,
        "total": total,
    }


def end_event(job: str, state: str) -> Dict[str, Any]:
    """The terminal push closing a job's event stream."""
    return {"event": "end", "job": job, "state": state}


def parse_address(address: str) -> Tuple[str, Any]:
    """Classify a ``--connect``-style address.

    Returns ``("unix", path)`` for filesystem paths and
    ``("tcp", (host, port))`` for ``host:port`` (or ``:port``, defaulting
    the host to ``127.0.0.1``).  Anything containing a slash is a path.
    """
    if not address:
        raise ValueError("empty serve address")
    if "/" in address or os_sep_in(address):
        return ("unix", address)
    if ":" in address:
        host, _, port_text = address.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(f"bad TCP port in serve address {address!r}") from None
        return ("tcp", (host or "127.0.0.1", port))
    return ("unix", address)


def os_sep_in(address: str) -> bool:
    """Whether ``address`` contains the platform path separator."""
    import os

    return os.sep in address or (os.altsep is not None and os.altsep in address)
