"""Unified runtime observability: metrics and trace spans.

:mod:`repro.instrument` answers the paper's question -- "how many
abstract operations did this take?"  This package answers the
production question the ROADMAP's north star asks: *where does the
wall-clock time actually go, right now, on this host?*  One
:class:`MetricsRegistry` collects counters, gauges, fixed-bucket
histograms, and lightweight trace spans from every instrumented layer
(groupsig sign/verify stages, the crypto engine's caches, the verifier
pool's chunks, the router/user handshake engines, and the WMN
simulator), and exports them as a JSON snapshot or Prometheus text.

Usage mirrors :func:`repro.instrument.count_operations`::

    from repro import obs

    with obs.collecting() as registry:
        deployment.connect("alice", "MR-1")
    text = obs.to_prometheus(registry.snapshot())

Design rules, in order of importance:

1. **The disabled path is near-free.**  With no registry installed an
   instrumented hot path pays one function call returning ``None`` plus
   one ``is not None`` check per site -- the same discipline as the
   op-counter hooks.  Asserted in ``tests/test_obs.py``.
2. **Snapshots are plain data and mergeable.**  ``snapshot()`` returns
   nested dicts/lists of primitives; :func:`merge_snapshots` and
   :meth:`MetricsRegistry.merge_snapshot` fold snapshots from other
   threads or processes into one, bucket-wise and key-wise, so the
   multi-process verifier pool and the simulator's per-node tallies
   aggregate exactly.
3. **Time is injectable.**  The registry takes any ``Clock``-like
   object (``.now() -> float``) or bare callable; the default is the
   monotonic ``time.perf_counter``.  Simulator code can hand it the
   :class:`~repro.wmn.simclock.SimClock` and histogram virtual time.
4. **One timing path.**  A region is timed by opening a span around
   it; when the span closes, the registry observes its duration into
   ``<name>_seconds``.  Nothing outside this package reads the
   registry's clock (``scripts/lint.sh`` gate 6).

Unlike the op counter the active registry is deliberately *global*,
not thread-local: a busy router's worker threads are expected to land
in one registry (every mutation takes the registry's lock).
"""

from repro.obs.export import to_json, to_prometheus
from repro.obs.health import (
    AlertEngine,
    AlertRule,
    HealthMonitor,
    HealthPolicy,
    RouterSignals,
    correlate_incidents,
    default_metro_rules,
    incidents_to_jsonl,
    render_incidents,
)
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    active,
    collecting,
    counter,
    gauge,
    install,
    merge_snapshots,
    observe,
    span,
    uninstall,
)
from repro.obs.spans import SpanRecord, TraceContext

__all__ = [
    "AlertEngine",
    "AlertRule",
    "DEFAULT_LATENCY_BUCKETS",
    "HealthMonitor",
    "HealthPolicy",
    "Histogram",
    "MetricsRegistry",
    "RouterSignals",
    "SpanRecord",
    "TraceContext",
    "active",
    "collecting",
    "correlate_incidents",
    "counter",
    "default_metro_rules",
    "gauge",
    "incidents_to_jsonl",
    "install",
    "merge_snapshots",
    "observe",
    "render_incidents",
    "span",
    "to_json",
    "to_prometheus",
    "uninstall",
]
