"""Snapshot exporters: JSON and Prometheus text exposition format.

Both operate on the plain-data snapshot (``registry.snapshot()`` or
any merge of snapshots), never on a live registry, so exporting is
race-free and works on snapshots shipped across processes.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition rules:
    backslash, double-quote, and newline must be escaped (in that
    order -- backslash first, or the other escapes double up)."""
    return (value.replace("\\", "\\\\")
                 .replace('"', '\\"')
                 .replace("\n", "\\n"))


def to_json(snapshot: Dict[str, object], indent: int = 2) -> str:
    """Render a snapshot as JSON (NaN/inf-free, diff-friendly keys)."""

    def clean(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        if isinstance(value, dict):
            return {k: clean(v) for k, v in sorted(value.items())}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        return value

    return json.dumps(clean(snapshot), indent=indent, sort_keys=True)


def _sanitize(name: str, namespace: str) -> str:
    metric = _NAME_OK.sub("_", name)
    return f"{namespace}_{metric}" if namespace else metric


def _format_value(value: float) -> str:
    if value != value:                    # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    formatted = repr(float(value))
    return formatted


def to_prometheus(snapshot: Dict[str, object],
                  namespace: str = "repro") -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters and gauges map directly; histograms emit the standard
    cumulative ``_bucket{le=...}`` series plus ``_sum`` and
    ``_count`` (a span's count and total time are its
    ``<name>_seconds`` histogram's).  Span op tallies, which live only
    in spans, aggregate per name and op into
    ``<ns>_span_ops_total{name="...",op="..."}``, with label values
    escaped per the exposition format (span-level detail stays in the
    JSON export; Prometheus is for aggregates).
    """
    lines = []

    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = _sanitize(name, namespace)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")

    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = _sanitize(name, namespace)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        metric = _sanitize(name, namespace)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["bounds"], hist["counts"]):
            cumulative += count
            lines.append(f'{metric}_bucket{{le="{_format_value(bound)}"}} '
                         f"{cumulative}")
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist["count"]}')
        lines.append(f'{metric}_sum {_format_value(hist["sum"])}')
        lines.append(f'{metric}_count {hist["count"]}')

    op_totals: Dict[tuple, int] = {}
    for record in snapshot.get("spans", {}).get("records", ()):
        name = str(record["name"])
        for op, amount in dict(record.get("ops") or ()).items():
            key = (name, str(op))
            op_totals[key] = op_totals.get(key, 0) + int(amount)
    if op_totals:
        base = _sanitize("span_ops_total", namespace)
        lines.append(f"# TYPE {base} counter")
        for (name, op), amount in sorted(op_totals.items()):
            lines.append(
                f'{base}{{name="{_escape_label_value(name)}",'
                f'op="{_escape_label_value(op)}"}} {amount}')

    return "\n".join(lines) + ("\n" if lines else "")
