"""The :class:`Telemetry` hub: one surface over spans, metrics and traces.

The repo's three observability primitives grew up separately --
:class:`~repro.sim.metrics.MetricRegistry` collectors,
:class:`~repro.sim.tracing.TraceRecorder` event logs, and the span buffers
of :mod:`repro.obs.spans`.  The hub unifies them behind ``snapshot()`` /
``export_jsonl()``: one JSONL stream of typed records (validated by
:mod:`repro.obs.schemas`, checked in at
``docs/schemas/telemetry.schema.json``) that opens with a **run manifest**
-- who measured, where, at which revision -- followed by every
span, every scalar metric, and a trace summary carrying the recorder's
retained/dropped counts.

``chrome_trace()`` re-shapes the same spans into the Chrome trace-event
format, so ``chrome://tracing`` (or Perfetto) renders a sweep's timeline
with one worker process per track.  ``python -m repro obs render FILE`` /
``python -m repro obs chrome FILE`` are the CLI front ends.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.spans import SPAN_BUFFER, SpanBuffer, SpanRecord
from repro.sim.metrics import MetricRegistry
from repro.sim.tracing import TraceRecorder

#: Version stamp of the telemetry JSONL layout.
TELEMETRY_SCHEMA_VERSION = 2

#: Metric families the hub itself maintains (sweep provenance counters).
#: The docs gate requires each to be a backticked doc token, like the serve
#: families in :data:`repro.serve.daemon.SERVE_METRIC_NAMES`.
HUB_METRIC_NAMES = (
    "sweep.cells",
    "sweep.cached",
    "sweep.computed",
)


class Telemetry:
    """One export surface over a metric registry, a trace, and span buffers."""

    def __init__(
        self,
        metrics: Optional[MetricRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        spans: Optional[SpanBuffer] = None,
    ):
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.trace = trace
        self.spans = spans if spans is not None else SPAN_BUFFER

    # -- assembly ------------------------------------------------------------

    def manifest(self, experiment: Optional[str] = None, **extra: Any) -> Dict[str, Any]:
        """The run manifest opening every export: provenance, not results."""
        from repro.perf.bench import git_revision

        record: Dict[str, Any] = {
            "type": "manifest",
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "created": time.time(),
            "experiment": experiment,
            "git_rev": git_revision(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        }
        record.update(extra)
        return record

    def _metric_records(self) -> List[Dict[str, Any]]:
        records: List[Dict[str, Any]] = []
        for counter in self.metrics.iter_counters():
            records.append(
                {"type": "metric", "kind": "counter", "name": counter.name,
                 "value": counter.value}
            )
        for gauge in self.metrics.iter_gauges():
            records.append(
                {"type": "metric", "kind": "gauge", "name": gauge.name,
                 "value": gauge.value}
            )
        for histogram in self.metrics.iter_histograms():
            records.append(
                {"type": "metric", "kind": "histogram", "name": histogram.name,
                 "value": histogram.total(), "count": histogram.count}
            )
        return records

    def _trace_record(self) -> Optional[Dict[str, Any]]:
        if self.trace is None:
            return None
        return {
            "type": "trace",
            "events": len(self.trace),
            "dropped": self.trace.dropped,
            "kinds": self.trace.kinds(),
        }

    def records(self, experiment: Optional[str] = None) -> List[Dict[str, Any]]:
        """Every JSONL record of one export, manifest first."""
        records: List[Dict[str, Any]] = [self.manifest(experiment=experiment)]
        records.extend(record.to_record() for record in self.spans.snapshot())
        records.extend(self._metric_records())
        trace = self._trace_record()
        if trace is not None:
            records.append(trace)
        return records

    def snapshot(self) -> Dict[str, Any]:
        """One JSON-ready view of everything the hub holds right now."""
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "spans": [record.to_record() for record in self.spans.snapshot()],
            "spans_dropped": self.spans.dropped,
            "metrics": self.metrics.snapshot(),
            "trace": self._trace_record(),
        }

    # -- sinks ---------------------------------------------------------------

    def export_jsonl(self, path, experiment: Optional[str] = None) -> Path:
        """Write the full record stream to ``path``, one JSON object per line."""
        target = Path(path)
        lines = [json.dumps(record, sort_keys=True) for record in self.records(experiment)]
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return target

    def chrome_trace(self) -> Dict[str, Any]:
        """The buffered spans as a Chrome trace-event document."""
        return chrome_trace_from_spans(self.spans.snapshot())

    def reset(self) -> None:
        """Drop every buffered span and reset the hub's own metrics."""
        self.spans.clear()
        self.metrics.reset()


#: The process-wide hub the CLI and sweep runner share.
TELEMETRY = Telemetry()


def chrome_trace_from_spans(spans: Iterable[SpanRecord]) -> Dict[str, Any]:
    """Shape span records into the Chrome trace-event format.

    Complete (``ph: "X"``) events with microsecond timestamps; ``pid``
    tracks the recording process, so a parallel sweep renders one lane per
    worker in ``chrome://tracing``.
    """
    events = [
        {
            "name": record.name,
            "ph": "X",
            "ts": record.start * 1e6,
            "dur": record.duration * 1e6,
            "pid": record.pid,
            "tid": record.thread,
            "args": dict(record.attrs),
        }
        for record in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_from_records(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Chrome trace-event document from exported JSONL records (span type only)."""
    events = [
        {
            "name": record["name"],
            "ph": "X",
            "ts": record["start"] * 1e6,
            "dur": record["duration"] * 1e6,
            "pid": record["pid"],
            "tid": record["thread"],
            "args": dict(record.get("attrs") or {}),
        }
        for record in records
        if record.get("type") == "span"
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def load_jsonl(path) -> List[Dict[str, Any]]:
    """Read one record per line from a ``--telemetry`` JSONL file."""
    records = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as error:
            raise ValueError(f"{path}:{lineno}: not a JSON record: {error}") from None
    return records


def render_text(records: List[Dict[str, Any]]) -> str:
    """A terse human summary of an exported telemetry stream.

    Per span name: call count, total and maximum duration; then the scalar
    metrics and the trace summary, mirroring the stream's record order.
    """
    manifest = next((r for r in records if r.get("type") == "manifest"), {})
    spans = [r for r in records if r.get("type") == "span"]
    metrics = [r for r in records if r.get("type") == "metric"]
    traces = [r for r in records if r.get("type") == "trace"]

    by_name: Dict[str, List[float]] = {}
    for record in spans:
        by_name.setdefault(record["name"], []).append(float(record["duration"]))
    pids = {record["pid"] for record in spans}

    lines = [
        "telemetry stream"
        + (f" for {manifest['experiment']}" if manifest.get("experiment") else "")
        + f" (rev {manifest.get('git_rev', '?')})",
        f"{len(spans)} span(s) across {len(pids)} process(es)",
    ]
    if by_name:
        lines.append(f"{'calls':>8}  {'total':>12}  {'max':>12}  span")
        for name in sorted(by_name, key=lambda key: -sum(by_name[key])):
            durations = by_name[name]
            lines.append(
                f"{len(durations):>8}  {sum(durations) * 1e3:>10.3f}ms  "
                f"{max(durations) * 1e3:>10.3f}ms  {name}"
            )
    if metrics:
        lines.append("metrics:")
        for record in metrics:
            suffix = f" (count {record['count']})" if "count" in record else ""
            lines.append(
                f"  {record['kind']:>9}  {record['name']} = {record['value']:g}{suffix}"
            )
    for record in traces:
        lines.append(
            f"trace: {record['events']} event(s), {record['dropped']} dropped"
        )
    return "\n".join(lines)
