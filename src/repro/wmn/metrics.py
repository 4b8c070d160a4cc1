"""Metric aggregation across simulator nodes.

Delay samples and per-node counters accumulate locally (simulation
results must not depend on whether observability is on);
:func:`counters_to_registry` pushes finished node counters onto a
:mod:`repro.obs` registry so simulator output and the crypto layer's
metrics land in one snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro import obs


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; NaN for empty input (explicit, never crashes)."""
    return sum(values) / len(values) if values else math.nan


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile in [0, 100]; NaN for empty input."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


@dataclass
class HandshakeStats:
    """Authentication-delay statistics for experiment E4."""

    samples: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self.samples.extend(values)

    @property
    def count(self) -> int:
        return len(self.samples)

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": mean(self.samples),
            "p50": percentile(self.samples, 50),
            "p95": percentile(self.samples, 95),
            "max": max(self.samples) if self.samples else math.nan,
        }


def merge_counters(counters: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Key-wise sum of node metric dictionaries."""
    total: Dict[str, float] = {}
    for counter in counters:
        for key, value in counter.items():
            total[key] = total.get(key, 0) + value
    return total


def counters_to_registry(counters: Dict[str, float], prefix: str,
                         registry: Optional["obs.MetricsRegistry"] = None
                         ) -> None:
    """Publish a merged counter dict as ``<prefix>.<key>`` gauges.

    Gauges, not counters: node dicts are cumulative totals, and
    re-publishing after another ``run()`` must overwrite, not double.
    """
    registry = registry if registry is not None else obs.active()
    if registry is None:
        return
    for key, value in counters.items():
        registry.gauge(f"{prefix}.{key}", float(value))
