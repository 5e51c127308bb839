"""Prometheus-style text exposition for a :class:`MetricRegistry`.

Renders the classic ``text/plain; version=0.0.4`` format any Prometheus
scraper (or ``curl`` + eyeballs) understands::

    # HELP repro_serve_submitted_total accepted submissions
    # TYPE repro_serve_submitted_total counter
    repro_serve_submitted_total 3

Mapping from registry names to sample names: dots and dashes become
underscores under a ``repro_`` prefix, counters gain the conventional
``_total`` suffix, and gauges are exposed verbatim.  Families render in
sorted order so the exposition text is deterministic for a given registry
state.

:func:`parse_exposition` is the inverse used by tests and the CI smoke
script: exposition text in, ``{sample name -> value}`` out, with malformed
lines rejected loudly.
"""

from __future__ import annotations

import math
import re
from typing import Dict

from repro.obs.metrics import MetricRegistry

#: Prefix of every exposed sample name.
EXPOSITION_PREFIX = "repro"

_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>[^\s]+)$"
)


def sample_name(metric: str, prefix: str = EXPOSITION_PREFIX) -> str:
    """The exposition sample name of registry metric ``metric``."""
    return f"{prefix}_{_SANITIZE.sub('_', metric)}"


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_exposition(registry: MetricRegistry, prefix: str = EXPOSITION_PREFIX) -> str:
    """The registry's counters and gauges as exposition text."""
    lines = []
    for counter in registry.iter_counters():
        family = sample_name(counter.name, prefix) + "_total"
        if counter.description:
            lines.append(f"# HELP {family} {counter.description}")
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family} {_format_value(counter.value)}")
    for gauge in registry.iter_gauges():
        family = sample_name(gauge.name, prefix)
        if gauge.description:
            lines.append(f"# HELP {family} {gauge.description}")
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_format_value(gauge.value)}")
    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{sample name [+labels] -> value}``.

    Comment lines (``# HELP`` / ``# TYPE``) are skipped; any other
    unparseable line raises :class:`ValueError` so a malformed exposition
    fails a test instead of silently shrinking.
    """
    samples: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        key = match.group("name") + (match.group("labels") or "")
        samples[key] = float(match.group("value"))
    return samples
