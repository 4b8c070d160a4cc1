"""The metrics registry: counters, gauges, histograms, spans.

See the package docstring for the contract.  Everything here is pure
Python with no imports from higher layers, so any module in the
package may report into the ambient registry.

A span is the one way to time a region: when one of a registry's
spans closes, the registry observes its duration into the histogram
``<name>_seconds``.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro import instrument
from repro.obs.spans import SpanLog, SpanRecord, TraceContext, _OpenSpan

#: Default histogram bucket upper bounds (seconds).  Geometric-ish
#: 1-2.5-5 ladder from 100 microseconds to 10 seconds: wide enough for
#: a TEST-preset sign (~ms) and an SS512 revocation scan (~100 ms)
#: to land mid-range, cheap enough (17 buckets) to merge constantly.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _as_callable(clock) -> Callable[[], float]:
    """Accept a ``Clock``-like (has ``.now()``), a callable, or None."""
    if clock is None:
        return time.perf_counter
    now = getattr(clock, "now", None)
    if now is not None and callable(now):
        return now
    if callable(clock):
        return clock
    raise TypeError("clock must expose .now() or be callable")


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max sidecars.

    ``bounds`` are inclusive upper bounds; one implicit overflow bucket
    (``+Inf``) catches the rest, so ``len(counts) == len(bounds) + 1``
    and the bucket layout is mergeable iff the bounds match.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                 ) -> None:
        ordered = tuple(float(b) for b in bounds)
        if not ordered or list(ordered) != sorted(set(ordered)):
            raise ValueError("histogram bounds must be sorted and unique")
        self.bounds = ordered
        self.counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def snapshot(self) -> Dict[str, object]:
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.sum, "count": self.count,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None}

    def merge(self, snap: Dict[str, object]) -> None:
        if list(snap["bounds"]) != list(self.bounds):
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(snap["counts"]):
            self.counts[i] += int(c)
        self.sum += float(snap["sum"])
        self.count += int(snap["count"])
        if snap.get("min") is not None:
            self.min = min(self.min, float(snap["min"]))
        if snap.get("max") is not None:
            self.max = max(self.max, float(snap["max"]))


class MetricsRegistry:
    """Thread-safe collector for one observation session.

    ``clock`` drives span timestamps and durations: pass a
    :class:`repro.core.clock.Clock` (anything with ``.now()``) or a
    bare callable; ``None`` means wall-clock ``time.perf_counter``.
    Every span that closes here feeds its ``<name>_seconds``
    histogram, including spans the ``max_spans`` bound drops from the
    log; spans merged in from other registries feed nothing.
    """

    def __init__(self, clock=None,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 max_spans: int = 2048, span_id_prefix: str = "") -> None:
        self.clock: Callable[[], float] = _as_callable(clock)
        self.default_buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans = SpanLog(self._span_closed, max_spans=max_spans,
                              id_prefix=span_id_prefix)

    # -- updates --------------------------------------------------------

    def counter(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the monotonically increasing ``name``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set the last-write-wins level ``name``."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float,
                buckets: Optional[Sequence[float]] = None) -> None:
        """Record one sample into the histogram ``name``.

        The bucket layout is fixed at the histogram's first
        observation; a later conflicting ``buckets`` argument is
        ignored (layout churn would break merging).
        """
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = Histogram(buckets or self.default_buckets)
                self._histograms[name] = histogram
            histogram.observe(value)

    def _span_closed(self, record: SpanRecord) -> None:
        self.observe(record.name + "_seconds", record.duration)

    def span(self, name: str, context: Optional[TraceContext] = None,
             trace_id: Optional[str] = None, **attrs: object) -> _OpenSpan:
        """Open a trace span (context manager) named ``name``.

        With ``context`` the span parents under that (possibly remote)
        span instead of this thread's innermost open span; with a bare
        ``trace_id`` a root-less span joins an existing trace.
        """
        return self._spans.span(self.clock, name, context=context,
                                trace_id=trace_id, **attrs)

    def start_span(self, name: str, context: Optional[TraceContext] = None,
                   trace_id: Optional[str] = None,
                   **attrs: object) -> _OpenSpan:
        """Open an *event-driven* span: started now, finished later via
        ``.finish()``, never on the thread stack (children must use its
        ``.context``).  For regions that open in one callback and close
        in another, e.g. a simulated handshake."""
        return self._spans.span(self.clock, name, context=context,
                                trace_id=trace_id, **attrs).start()

    # -- reads ----------------------------------------------------------

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def histogram_snapshot(self, name: str) -> Optional[Dict[str, object]]:
        with self._lock:
            histogram = self._histograms.get(name)
            return histogram.snapshot() if histogram else None

    def spans(self):
        """Finished :class:`~repro.obs.spans.SpanRecord` list, oldest first."""
        return self._spans.records()

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of everything collected so far."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {name: h.snapshot()
                               for name, h in self._histograms.items()},
                "spans": self._spans.snapshot(),
            }

    # -- merging --------------------------------------------------------

    def merge_snapshot(self, snap: Dict[str, object],
                       reparent: Optional[TraceContext] = None) -> None:
        """Fold another registry's snapshot into this one.

        Counters add, gauges last-write-win, histograms merge
        bucket-wise (the layouts must match), spans concatenate under
        the bound and feed no histogram (their samples arrive with the
        snapshot's histograms, if at all).  This is how per-process and
        per-node observations aggregate into one report.  ``reparent``
        adopts orphan span records (no trace identity) under the given
        context -- used to stitch worker-process spans beneath the
        submitting trace.
        """
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(snap.get("gauges", {}))
            for name, histogram_snap in snap.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = Histogram(histogram_snap["bounds"])
                    self._histograms[name] = histogram
                histogram.merge(histogram_snap)
        self._spans.merge_snapshot(snap.get("spans", {}), reparent=reparent)

    def merge_spans(self, span_snap: Dict[str, object],
                    reparent: Optional[TraceContext] = None) -> None:
        """Merge just a span-log snapshot (``{"records": ..., "dropped":
        ...}``), optionally re-parenting orphans -- the shape shipped
        back by verifier-pool workers.  Merged spans feed no
        histogram."""
        self._spans.merge_snapshot(span_snap, reparent=reparent)


def merge_snapshots(snaps: Iterable[Dict[str, object]],
                    clock=None) -> MetricsRegistry:
    """Build one registry holding the union of ``snaps``."""
    registry = MetricsRegistry(clock=clock)
    for snap in snaps:
        registry.merge_snapshot(snap)
    return registry


# ---------------------------------------------------------------------------
# The ambient registry (the hot-path hook surface)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[MetricsRegistry] = None


def active() -> Optional[MetricsRegistry]:
    """The installed registry, or ``None`` (collection disabled).

    This is THE hot-path hook: instrumented code does
    ``reg = obs.active()`` once, then guards every further touch with
    ``if reg is not None`` -- so the disabled path costs one call and
    one comparison per instrumented site.
    """
    return _ACTIVE


def install(registry: Optional[MetricsRegistry]
            ) -> Optional[MetricsRegistry]:
    """Make ``registry`` ambient; returns the previous one (restorable).

    Installing also points the :mod:`repro.instrument` span sink at the
    registry's span log, so op-count events attribute to the innermost
    open span (the instrument->span bridge); uninstalling clears it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    instrument.set_span_sink(
        registry._spans.note_op if registry is not None else None)
    return previous


def uninstall() -> None:
    """Disable collection (idempotent)."""
    install(None)


@contextmanager
def collecting(registry: Optional[MetricsRegistry] = None, clock=None):
    """Install a registry for the dynamic extent; yields it.

    With no argument a fresh :class:`MetricsRegistry` is created.  The
    previously installed registry (if any) is restored on exit, so
    scopes nest the way :func:`repro.instrument.count_operations` does.
    """
    registry = registry if registry is not None \
        else MetricsRegistry(clock=clock)
    previous = install(registry)
    try:
        yield registry
    finally:
        install(previous)


# -- no-op-safe conveniences (for warm paths, not inner loops) ----------

class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


def counter(name: str, amount: float = 1) -> None:
    """Ambient counter add; no-op when collection is disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name, amount)


def gauge(name: str, value: float) -> None:
    """Ambient gauge set; no-op when collection is disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name, value)


def observe(name: str, value: float,
            buckets: Optional[Sequence[float]] = None) -> None:
    """Ambient histogram sample; no-op when collection is disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value, buckets=buckets)


def span(name: str, context: Optional[TraceContext] = None,
         **attrs: object):
    """Ambient trace span; a shared do-nothing manager when disabled."""
    registry = _ACTIVE
    if registry is None:
        return _NULL_SPAN
    return registry.span(name, context=context, **attrs)

