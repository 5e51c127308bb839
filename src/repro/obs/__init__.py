"""Unified telemetry: spans, the hub, exposition, and schemas.

The observability layer of the reproduction (see the "Observability"
section of ``docs/architecture.md``):

* :mod:`repro.obs.spans` -- the nestable ``span()`` context manager and the
  per-process buffers it fills, gated by ``REPRO_TELEMETRY``.
* :mod:`repro.obs.metrics` -- :class:`Counter`, :class:`Gauge` and the
  :class:`MetricRegistry` that holds them (the sweep's cell counter, the
  serve daemon's counters and gauges).
* :mod:`repro.obs.telemetry` -- the :class:`Telemetry` hub putting a
  metric registry and the span buffers behind ``export_jsonl()`` /
  ``chrome_trace()``.
* :mod:`repro.obs.exposition` -- Prometheus-style text exposition of a
  metric registry (the serve daemon's ``metrics`` verb).
* :mod:`repro.obs.schemas` -- JSON schemas for the telemetry JSONL stream
  and the Chrome trace export, checked in at
  ``docs/schemas/telemetry.schema.json``.

Telemetry is strictly observation-only: enabling it never changes any
result byte (``tests/test_obs_determinism.py`` enforces this).

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest.
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.obs.metrics": ("Counter", "Gauge", "MetricRegistry"),
        "repro.obs.spans": (
            "SPAN_BUFFER",
            "SPAN_NAMES",
            "TELEMETRY_ENV",
            "SpanBuffer",
            "SpanRecord",
            "disable",
            "emit",
            "enable",
            "span",
            "telemetry_enabled",
        ),
        "repro.obs.telemetry": (
            "HUB_METRIC_NAMES",
            "TELEMETRY",
            "TELEMETRY_SCHEMA_VERSION",
            "Telemetry",
        ),
    },
)
