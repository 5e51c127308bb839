"""Rendering of experiment results: plain text, CSV, and JSON-safe values.

The benchmark harness prints each table/figure of the paper as an aligned
plain-text table (stdout is the only output channel available offline);
these helpers keep the formatting consistent across experiments.  The
uniform result contract (:mod:`repro.experiments.api`) additionally renders
machine-readable output through :func:`render_csv` and :func:`json_safe`.
"""

from __future__ import annotations

import csv
import io
import math
from typing import List, Mapping, Optional, Sequence

import numpy as np


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render ``rows`` under ``headers`` as an aligned plain-text table."""
    if not headers:
        raise ValueError("a table needs at least one column")
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {row!r} has {len(row)} cells but the table has {len(headers)} columns"
            )
        rendered_rows.append([_render_cell(cell, float_format) for cell in row])

    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    header_line = "  ".join(str(header).ljust(widths[i]) for i, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _render_cell(cell: object, float_format: str) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        return float_format.format(cell)
    return str(cell)


def json_safe(value: object) -> object:
    """Coerce a result cell into a portable JSON value.

    NumPy scalars become native Python numbers, non-finite floats become
    ``null`` (strict JSON has no NaN/Infinity), containers recurse, and
    anything else non-primitive falls back to ``str``.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return value if math.isfinite(value) else None
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): json_safe(item) for key, item in value.items()}
    return str(value)


def render_csv(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render ``rows`` under ``headers`` as RFC-4180 CSV (one header row).

    Every row must have exactly one cell per header -- the same invariant
    :func:`format_table` enforces -- so the CSV a result writes always
    matches its ``columns()`` contract.
    """
    if not headers:
        raise ValueError("a CSV table needs at least one column")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([str(header) for header in headers])
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {row!r} has {len(row)} cells but the table has {len(headers)} columns"
            )
        writer.writerow(["" if cell is None else cell for cell in row])
    return buffer.getvalue()


def render_series(
    x_label: str,
    series: Mapping[str, Mapping[object, float]],
    title: Optional[str] = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render several named series sharing an x axis (one row per x value).

    ``series`` maps series name -> {x value -> y value}; this is the shape
    of the paper's figures (one line per topology, swap overhead on the y
    axis).
    """
    if not series:
        raise ValueError("render_series needs at least one series")
    x_values: List[object] = []
    for points in series.values():
        for x in points:
            if x not in x_values:
                x_values.append(x)
    x_values.sort(key=lambda value: (isinstance(value, str), value))
    headers = [x_label] + list(series)
    rows = []
    for x in x_values:
        row: List[object] = [x]
        for name in series:
            value = series[name].get(x)
            row.append(float("nan") if value is None else value)
        rows.append(row)
    return format_table(headers, rows, title=title, float_format=float_format)
