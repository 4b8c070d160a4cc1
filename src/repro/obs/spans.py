"""Causal trace spans for the observability registry.

A span is one timed region with a name, optional attributes, a parent,
and (new in the tracing layer) an identity inside a *trace*: every span
carries a ``trace_id`` naming the end-to-end operation it belongs to
(one user-router handshake, one obs-report workload) and a ``span_id``
unique within its log.  Spans answer "what did *this particular*
handshake spend its time on" where histograms only answer "what do
handshakes cost in aggregate".

Parenting has two mechanisms, in priority order:

1. **Explicit :class:`TraceContext`.**  A caller that received a
   context -- from another node via a sim frame, from another process
   via a verifier-pool task -- opens its span with ``context=ctx`` and
   the span is parented under ``ctx.span_id`` in ``ctx.trace_id``,
   regardless of what this thread's stack holds.  This is what lets
   spans emitted on different nodes (or in worker processes) stitch
   into one causal trace.
2. **The per-thread stack.**  A span opened with no context parents
   under the innermost span open *on the same thread*, inheriting its
   trace.  This covers ordinary synchronous nesting (verify inside
   handshake inside workload).

Rule 1 strictly supersedes rule 2: spans opened from pool callbacks or
helper threads used to lose their logical parent because the stack is
per-thread; supplying the context restores the causal link (regression
test in ``tests/test_obs_trace.py``).

Spans also accumulate **operation costs**: while a span is the
innermost open span on its thread, every
:func:`repro.instrument.note` call (pairings, exponentiations, ...)
is bridged into the span's ``ops`` tally, so a finished trace carries
the paper's per-stage cost breakdown, not just wall-clock durations.
Attribution is *exclusive* (self-cost): an op lands in exactly one
span, so summing over a trace's spans reproduces the
:mod:`repro.instrument` totals for that operation.

The recorder is bounded: once ``max_spans`` records accumulate, new
spans are counted but dropped (``dropped`` in the snapshot), so a
long-running router cannot leak memory through tracing.  A span's
latency does not depend on the bound: the registry turns every span
that closes into a sample of its ``<name>_seconds`` histogram before
the bound is consulted (:class:`~repro.obs.registry.MetricsRegistry`).
Records from different threads or processes merge by concatenation
under the same bound; :meth:`SpanLog.merge_snapshot` optionally
re-parents orphan records under a supplied context (how worker-process
span snapshots are stitched under the submitting handshake's trace).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class TraceContext:
    """A propagatable reference to one open span of one trace.

    Plain data on purpose: contexts ride on sim frames across node
    boundaries and on pickled verifier-pool tasks across process
    boundaries.  ``child spans`` created from a context parent under
    ``span_id`` within ``trace_id``.
    """

    trace_id: str
    span_id: str

    def to_tuple(self) -> Tuple[str, str]:
        return (self.trace_id, self.span_id)

    @classmethod
    def from_tuple(cls, data) -> Optional["TraceContext"]:
        if data is None:
            return None
        return cls(trace_id=str(data[0]), span_id=str(data[1]))


@dataclass(frozen=True)
class SpanRecord:
    """One finished span, as plain data (snapshot/merge friendly).

    ``parent_id``/``span_id``/``trace_id`` are the causal identities
    trace reconstruction uses.  ``ops`` holds the operation-count
    deltas (:mod:`repro.instrument` events) attributed to this span's
    own extent -- exclusive of child spans.
    """

    name: str
    start: float
    duration: float
    attrs: Tuple[Tuple[str, str], ...] = ()
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    ops: Tuple[Tuple[str, int], ...] = ()

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start,
                "duration": self.duration, "attrs": dict(self.attrs),
                "trace_id": self.trace_id, "span_id": self.span_id,
                "parent_id": self.parent_id, "ops": dict(self.ops)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        return cls(name=str(data["name"]), start=float(data["start"]),
                   duration=float(data["duration"]),
                   attrs=tuple(sorted(dict(data.get("attrs", {})).items())),
                   trace_id=data.get("trace_id"),
                   span_id=data.get("span_id"),
                   parent_id=data.get("parent_id"),
                   ops=tuple(sorted(
                       (str(k), int(v))
                       for k, v in dict(data.get("ops", {})).items())))


class _OpenSpan:
    """One live span; created by :class:`SpanLog`.

    Usable as a context manager (synchronous regions -- pushes onto the
    thread's stack so children nest) or via :meth:`start` /
    :meth:`finish` for event-driven regions that open in one callback
    and close in another (a simulated handshake spanning many events);
    started spans do not join the stack -- their children must be
    opened with an explicit context (:attr:`context`).
    """

    __slots__ = ("_log", "_clock", "name", "_attrs", "_start", "_context",
                 "_pushed", "_done", "trace_id", "span_id", "parent_id",
                 "ops")

    def __init__(self, log: "SpanLog", clock, name: str,
                 attrs: Dict[str, str],
                 context: Optional[TraceContext] = None,
                 trace_id: Optional[str] = None) -> None:
        self._log = log
        self._clock = clock
        self.name = name
        self._attrs = attrs
        self._start = 0.0
        self._context = context
        self._pushed = False
        self._done = False
        self.trace_id: Optional[str] = trace_id
        self.span_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self.ops: Dict[str, int] = {}

    @property
    def context(self) -> TraceContext:
        """The context children (possibly on other nodes) parent under."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    @property
    def attrs(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted(self._attrs.items()))

    def set_attr(self, key: str, value: object) -> None:
        """Attach/overwrite one attribute while the span is open
        (outcomes are usually only known at the end)."""
        self._attrs[key] = str(value)

    def note_op(self, event: str, amount: int) -> None:
        """Bridge hook: attribute one op-count event to this span."""
        self.ops[event] = self.ops.get(event, 0) + amount

    # -- lifecycle ------------------------------------------------------

    def _begin(self, push: bool) -> None:
        self.span_id = self._log._next_span_id()
        if self._context is not None:
            # Explicit context parenting supersedes the thread-local
            # stack: the causal parent may live on another thread,
            # node, or process.
            self.trace_id = self._context.trace_id
            self.parent_id = self._context.span_id
        else:
            stack = self._log._stack()
            top = stack[-1] if stack else None
            if top is not None:
                if self.trace_id is None:
                    self.trace_id = top.trace_id
                self.parent_id = top.span_id
            elif self.trace_id is None:
                # A root span with no context starts a fresh trace.
                self.trace_id = self._log._next_trace_id()
        if push:
            self._log._stack().append(self)
            self._pushed = True
        self._start = self._clock()

    def start(self) -> "_OpenSpan":
        """Open without joining the thread stack (event-driven use)."""
        self._begin(push=False)
        return self

    def finish(self) -> None:
        """Close the span and record it.  Idempotent."""
        if self._done:
            return
        self._done = True
        end = self._clock()
        if self._pushed:
            stack = self._log._stack()
            if stack and stack[-1] is self:
                stack.pop()
        self._log.record(SpanRecord(
            name=self.name, start=self._start,
            duration=end - self._start, attrs=self.attrs,
            trace_id=self.trace_id, span_id=self.span_id,
            parent_id=self.parent_id, ops=tuple(sorted(self.ops.items()))))

    def __enter__(self) -> "_OpenSpan":
        self._begin(push=True)
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish()


class SpanLog:
    """Bounded, thread-safe store of finished :class:`SpanRecord`\\ s.

    ``on_close`` sees every span that closes in this log, before the
    bound decides whether to keep its record; merged records never
    reach it.  ``id_prefix`` namespaces generated span/trace ids --
    worker processes set it to a per-process prefix so their ids cannot
    collide with the parent's when snapshots merge.
    """

    def __init__(self, on_close: Callable[[SpanRecord], None],
                 max_spans: int = 2048, id_prefix: str = "") -> None:
        self.max_spans = max_spans
        self.id_prefix = id_prefix
        self._on_close = on_close
        self._records: List[SpanRecord] = []
        self._dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_seq = 0
        self._trace_seq = 0

    def _stack(self) -> List[_OpenSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_span_id(self) -> str:
        with self._lock:
            self._span_seq += 1
            return f"{self.id_prefix}s{self._span_seq}"

    def _next_trace_id(self) -> str:
        with self._lock:
            self._trace_seq += 1
            return f"{self.id_prefix}t{self._trace_seq}"

    def span(self, clock, name: str,
             context: Optional[TraceContext] = None,
             trace_id: Optional[str] = None, **attrs: object) -> _OpenSpan:
        encoded = {k: str(v) for k, v in attrs.items()}
        return _OpenSpan(self, clock, name, encoded, context=context,
                         trace_id=trace_id)

    def note_op(self, event: str, amount: int) -> None:
        """Attribute one :mod:`repro.instrument` event to the innermost
        open span on this thread (no-op when none is open)."""
        stack = getattr(self._local, "stack", None)
        if stack:
            stack[-1].note_op(event, amount)

    def record(self, record: SpanRecord) -> None:
        """Hand one closed span to ``on_close``, then store it or count
        it dropped past the bound."""
        self._on_close(record)
        with self._lock:
            if len(self._records) >= self.max_spans:
                self._dropped += 1
            else:
                self._records.append(record)

    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"records": [r.to_dict() for r in self._records],
                    "dropped": self._dropped}

    def merge_snapshot(self, snap: Dict[str, object],
                       reparent: Optional[TraceContext] = None) -> None:
        """Concatenate another log's records under the bound.

        With ``reparent``, records that arrive *orphaned* -- a
        worker-local root (no parent_id) and everything in the trace it
        minted -- are adopted into ``reparent``'s trace, the root
        becoming a child of ``reparent``'s span and its descendants
        following (their locally-minted trace id is remapped, their
        parent links already point at the root).  Records opened with
        an explicit foreign context are left untouched: they carry the
        caller's trace id and a parent, so they are already stitched.
        """
        records = [SpanRecord.from_dict(d) for d in snap.get("records", ())]
        if reparent is not None:
            orphan_traces = {record.trace_id for record in records
                             if record.parent_id is None
                             and record.trace_id is not None}
            adopted = []
            for record in records:
                trace_id = record.trace_id
                parent_id = record.parent_id
                changed = False
                if trace_id is None or trace_id in orphan_traces:
                    trace_id = reparent.trace_id
                    changed = True
                if record.parent_id is None:
                    parent_id = reparent.span_id
                    changed = True
                if changed:
                    record = SpanRecord(
                        name=record.name, start=record.start,
                        duration=record.duration, attrs=record.attrs,
                        trace_id=trace_id, span_id=record.span_id,
                        parent_id=parent_id, ops=record.ops)
                adopted.append(record)
            records = adopted
        dropped = int(snap.get("dropped", 0))
        with self._lock:
            self._dropped += dropped
            for record in records:
                if len(self._records) >= self.max_spans:
                    self._dropped += 1
                else:
                    self._records.append(record)
