"""Multi-core group-signature verification (the gateway bottleneck).

Section V.C prices verification at 6 exponentiations and ``3 + 2*|URL|``
pairings -- on a busy gateway router the revocation scan dominates and
every signature is independent, so the work shards perfectly across
cores.  :class:`VerifierPool` runs :func:`repro.core.groupsig.classify`
for chunks of a batch in warm worker processes and reassembles results
in submission order.

Design constraints, in order of importance:

1. **Outcome identity.**  For any batch, the pool returns exactly what
   :func:`groupsig.verify_batch` returns serially: the same
   accept/reject outcome per item, the same error type and message, and
   (for revocations) the same opened ``token_index``.
2. **Count identity.**  Workers run each item under a fresh
   :func:`repro.instrument.count_operations` scope and ship the
   per-item tallies home; the pool replays them into the caller's
   ambient counter.  Measured operation counts are therefore identical
   to the serial path -- parallelism changes wall-clock time only.
3. **No engine pickling.**  Worker state is rebuilt from the *wire*
   encodings (pairing preset name, ``gpk.encode()``, token encodings),
   the same bytes a real distributed verifier would receive.  Each
   worker decodes once at initialization and warms its own
   :class:`~repro.core.groupsig.CryptoEngine` tables, outside any
   counted region.  Workers start from a *spawn* context: a forked
   child inherits the parent's locks mid-state (the parent may hold
   threads), which can deadlock it before it runs a single task.

Worker sizing: ``processes=None`` sizes the pool from the cores this
process may actually run on (``os.sched_getaffinity``, not the
machine-wide ``cpu_count``) and degrades to *auto-serial* -- no worker
processes at all -- when only one core is available, where "parallel"
workers would time-slice the single core and pay IPC on top (the
measured 0.83x regression this module used to ship).  The decision is
recorded on ``pool.auto_serial`` / ``pool.host_cores`` and the
``pool.auto_serial`` obs counter; an explicit ``processes=N`` is always
honored.  Chunks are dispatched through the shared task queue (idle
workers steal the next chunk as they free up) and collected
finishes-first, so one slow chunk never blocks absorption of faster
ones behind it.

Serial fallback and recovery: when ``processes=0`` or the platform
cannot provide a process pool, every chunk runs in the calling process
through the very same chunk runner.  When a submitted chunk times out
or its worker dies mid-batch, the pool (1) re-runs that chunk and every
other in-flight chunk in the calling process -- their worker-side
results, if any ever materialize, die with the old workers, so each
chunk is absorbed exactly once and operation counts stay identical to
serial; (2) terminates the wedged worker set and respawns a fresh one
(bounded by ``max_worker_restarts``), so the rest of the batch and
later batches run parallel again.  Once the restart budget is spent
the pool degrades permanently to serial mode.  Either way results are
indistinguishable from :func:`groupsig.verify_batch`, only slower.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import time
from collections import deque
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from repro import instrument, obs
from repro.core import groupsig
from repro.core.groupsig import (
    GroupPublicKey,
    GroupSignature,
    RevocationToken,
)
from repro.errors import InvalidSignature, ParameterError, RevokedKeyError
from repro.obs.spans import TraceContext
from repro.pairing.group import PairingGroup

#: Items per worker task.  Large enough to amortize IPC, small enough
#: that a straggler chunk cannot serialize the whole batch.
DEFAULT_CHUNK_SIZE = 8

#: Per-chunk result deadline.  Generous: a chunk is at most
#: ``chunk_size`` verifications, each well under a second on every
#: preset; hitting this means the worker is wedged, not slow.
DEFAULT_TASK_TIMEOUT = 120.0

#: How many times one pool may replace a dead/hung worker set before
#: giving up and running serially for good.
DEFAULT_MAX_WORKER_RESTARTS = 2

#: Backoff between worker-set respawns *within one submission*: the
#: first respawn is immediate (a transient death should not stall the
#: batch), then delays double from this base up to the cap below.  A
#: crash-looping worker set burns its restart budget at a bounded
#: rate instead of spinning through spawn/SIGKILL cycles.
DEFAULT_RESPAWN_BACKOFF = 0.05

#: Ceiling for the doubled respawn delay.
DEFAULT_MAX_RESPAWN_BACKOFF = 1.0


def available_cores() -> int:
    """Cores this process may run on (affinity-aware, min 1)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1

# Worker-process state, installed once by _worker_init.  One pool's
# workers serve exactly one (gpk, URL) snapshot, so a trio of module
# globals suffices.
_worker_gpk: Optional[GroupPublicKey] = None
_worker_tokens: Tuple[RevocationToken, ...] = ()


def snapshot_fingerprint(gpk: GroupPublicKey,
                         url: Sequence[RevocationToken]) -> bytes:
    """Digest of the wire form of one verification context.

    Routers compare this against a pool's stored fingerprint to decide
    whether the pool's worker-side snapshot is still current; a stale
    pool (URL rotated underneath it) must not be consulted.
    """
    digest = hashlib.sha256()
    digest.update(gpk.group.params.name.encode())
    digest.update(gpk.encode())
    for token in url:
        digest.update(token.encode())
    return digest.digest()


def _worker_init(preset: str, gpk_blob: bytes,
                 token_blobs: Tuple[bytes, ...]) -> None:
    """Rebuild the verification context from wire encodings and warm it.

    Runs once per worker process.  Table construction happens here,
    outside any instrumented region, mirroring the parent process where
    the engine is warm before the measured batch begins.
    """
    global _worker_gpk, _worker_tokens
    group = PairingGroup(preset)
    _worker_gpk = GroupPublicKey.decode(group, gpk_blob)
    _worker_tokens = tuple(RevocationToken.decode(group, blob)
                           for blob in token_blobs)
    engine = _worker_gpk.engine
    # The classifier's tables: the NAF step tables for the SPK's R2
    # legs, the fixed-base GT table for e(g1, g2)^-c (which quietly
    # warms the base pairing), and the per-token line tables for this
    # pool's URL snapshot.  Built once here, they make every chunk the
    # worker steals run entirely on warm state.
    engine.g2_naf_steps
    engine.w_naf_steps
    engine.gt_table
    if _worker_tokens:
        engine.token_steps(_worker_tokens)


def _worker_run(task: tuple) -> tuple:
    """Verify one chunk inside a worker; see :func:`_run_chunk`.

    Returns ``(chunk_result, span_snapshot_or_None)``.  When any item
    carries a :class:`~repro.obs.spans.TraceContext`, the chunk runs
    under a fresh worker-local registry whose span ids are namespaced
    by this worker's pid; the resulting span-log snapshot ships home
    with the outcomes so the parent can stitch the worker-side
    verification spans into the submitting traces.  Only *spans* are
    shipped -- worker-side counters/histograms are discarded, keeping
    the parent's aggregate metrics identical to the untraced path (op
    counts travel separately as per-item tallies, exactly as before).
    """
    period, check_revocation, items = task
    decoded = [(index, message,
                GroupSignature.decode(_worker_gpk.group, sig_blob),
                TraceContext.from_tuple(ctx))
               for index, message, sig_blob, ctx in items]
    if not any(ctx is not None for _i, _m, _s, ctx in decoded):
        return (_run_chunk(_worker_gpk, _worker_tokens, decoded, period,
                           check_revocation), None)
    registry = obs.MetricsRegistry(span_id_prefix=f"w{os.getpid()}.")
    with obs.collecting(registry):
        result = _run_chunk(_worker_gpk, _worker_tokens, decoded, period,
                            check_revocation)
    return (result, registry.snapshot()["spans"])


def _run_chunk(gpk: GroupPublicKey,
               tokens: Sequence[RevocationToken],
               items: Sequence[Tuple[int, bytes, GroupSignature,
                                     Optional[TraceContext]]],
               period: Optional[bytes],
               check_revocation: bool) -> list:
    """Verify ``(index, message, signature, trace_ctx)`` items one by one.

    Shared by worker processes and the serial fallback so both paths
    are literally the same code.  Each item runs through
    :func:`groupsig.classify` -- the classifier serial verification
    uses, so the pool inherits the batch core's single-core speedup
    before parallelism multiplies it -- under its own counter; the
    caller replays the returned tallies, keeping measured counts
    identical whether the work happened here or across a pipe.  An item
    with a trace context gets a ``pool.verify_item`` span parented
    under it (the item's ``groupsig.verify`` span nests inside),
    attributing the item's crypto ops to the originating handshake's
    trace.
    """
    out = []
    for index, message, signature, ctx in items:
        with obs.span("pool.verify_item", context=ctx, index=index,
                      pid=os.getpid()) if ctx is not None \
                else nullcontext():
            with instrument.count_operations() as ops:
                error = groupsig.classify(gpk, [(message, signature)],
                                          tokens, period,
                                          check_revocation)[0]
        if error is None:
            outcome = None
        elif isinstance(error, RevokedKeyError):
            outcome = ("revoked", str(error),
                       getattr(error, "token_index", None))
        else:
            outcome = ("invalid", str(error))
        out.append((index, outcome, ops.snapshot()))
    return out


def _chaos_hang(seconds: float) -> None:  # pragma: no cover - worker side
    """Fault-injection task: wedge the worker that picks it up.

    Used by :class:`repro.faults.FaultInjector`'s ``hang_worker`` fault
    to make a worker unresponsive without killing it -- the classic
    straggler.  The sleep runs in the worker process, so terminating
    the pool (which :meth:`VerifierPool.respawn_workers` does) reclaims
    it.
    """
    import time
    time.sleep(seconds)


def _decode_outcome(encoded) -> Optional[Exception]:
    if encoded is None:
        return None
    if encoded[0] == "revoked":
        error = RevokedKeyError(encoded[1])
        error.token_index = encoded[2]
        return error
    return InvalidSignature(encoded[1])


class VerifierPool:
    """Warm worker processes sharding batch verification for one gpk+URL.

    The pool snapshots the verification context (gpk and revocation
    list) *by wire encoding* at construction; workers never receive
    live engine state.  Use as a context manager, or call
    :meth:`close` -- worker processes are OS resources.

    ``processes=0`` requests the documented serial mode: no processes
    are spawned and :meth:`verify_batch` runs every chunk in the
    calling process (useful as an A/B control and on single-core
    hosts).  ``processes=None`` sizes the pool from
    :func:`available_cores` and auto-selects serial mode when only one
    core is available (``auto_serial`` is then True); an explicit
    worker count is honored as given.
    """

    def __init__(self, gpk: GroupPublicKey,
                 url: Sequence[RevocationToken] = (),
                 processes: Optional[int] = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 max_inflight: Optional[int] = None,
                 task_timeout: float = DEFAULT_TASK_TIMEOUT,
                 max_worker_restarts: int = DEFAULT_MAX_WORKER_RESTARTS,
                 respawn_backoff: float = DEFAULT_RESPAWN_BACKOFF,
                 max_respawn_backoff: float = DEFAULT_MAX_RESPAWN_BACKOFF
                 ) -> None:
        if chunk_size < 1:
            raise ParameterError("chunk_size must be at least 1")
        if processes is not None and processes < 0:
            raise ParameterError("processes must be >= 0")
        if max_worker_restarts < 0:
            raise ParameterError("max_worker_restarts must be >= 0")
        if respawn_backoff < 0 or max_respawn_backoff < 0:
            raise ParameterError("respawn backoff must be >= 0")
        self.gpk = gpk
        self.tokens: Tuple[RevocationToken, ...] = tuple(url)
        self.chunk_size = chunk_size
        self.task_timeout = task_timeout
        self.fingerprint = snapshot_fingerprint(gpk, self.tokens)
        self.serial_fallbacks = 0  # chunks that ran in-process instead
        self.max_worker_restarts = max_worker_restarts
        self.worker_restarts = 0   # respawns performed so far
        self.respawn_backoff = respawn_backoff
        self.max_respawn_backoff = max_respawn_backoff
        self.respawn_delays: List[float] = []  # applied delays, in order
        self._batch_respawns = 0   # respawns within the current batch
        self.host_cores = available_cores()
        self.auto_serial = False
        if processes is None:
            # Parallelism cannot pay on a single available core: the
            # workers would time-slice it and add IPC on top.  Run the
            # chunks in-process instead and say so.
            if self.host_cores <= 1:
                processes = 0
                self.auto_serial = True
                obs.counter("pool.auto_serial")
            else:
                processes = self.host_cores
        self.processes = processes
        self.max_inflight = max_inflight or max(2 * processes, 2)
        self._initargs = (gpk.group.params.name, gpk.encode(),
                          tuple(t.encode() for t in self.tokens))
        self._pool = self._spawn() if processes > 0 else None

    # -- lifecycle ------------------------------------------------------

    def _spawn(self):
        """One fresh worker set, or ``None`` when the host can't."""
        try:
            context = multiprocessing.get_context("spawn")
            return context.Pool(processes=self.processes,
                                initializer=_worker_init,
                                initargs=self._initargs)
        except (OSError, ValueError, ImportError):
            # No usable multiprocessing on this host; documented
            # fallback is silent serial operation.
            return None

    @property
    def is_parallel(self) -> bool:
        """True when worker processes are live (not serial mode)."""
        return self._pool is not None

    def matches(self, gpk: GroupPublicKey,
                url: Sequence[RevocationToken]) -> bool:
        """Is the worker-side snapshot current for this gpk and URL?"""
        return snapshot_fingerprint(gpk, url) == self.fingerprint

    def worker_pids(self) -> List[int]:
        """Live worker process ids (health introspection, chaos)."""
        if self._pool is None:
            return []
        return [proc.pid for proc in self._pool._pool
                if proc.pid is not None]

    def inject_worker_hang(self, seconds: float = 3600.0) -> bool:
        """Chaos hook: wedge one worker in a long sleep.

        The next chunk unlucky enough to land on that worker times
        out, driving the requeue-and-respawn path.  Returns False in
        serial mode (nothing to hang).
        """
        if self._pool is None:
            return False
        self._pool.apply_async(_chaos_hang, (seconds,))
        return True

    def _next_respawn_delay(self) -> float:
        """Delay to apply before the next respawn of this submission.

        Capped exponential: respawn 1 is free, respawn ``n`` waits
        ``respawn_backoff * 2**(n-2)`` bounded by
        ``max_respawn_backoff``.  The counter resets per
        :meth:`verify_batch` call, so a later healthy batch is not
        taxed for an earlier sick one.
        """
        self._batch_respawns += 1
        if self._batch_respawns <= 1 or self.respawn_backoff <= 0:
            delay = 0.0
        else:
            delay = min(
                self.respawn_backoff * (2 ** (self._batch_respawns - 2)),
                self.max_respawn_backoff)
        self.respawn_delays.append(delay)
        if delay > 0:
            obs.counter("pool.respawn_backoffs_total")
        return delay

    def respawn_workers(self) -> bool:
        """Replace the (dead/hung) worker set with a fresh one.

        Terminating the old pool reaps its processes *and* orphans any
        still-undelivered chunk results with it -- the caller must have
        already requeued those chunks in-process, which is what keeps
        replayed operation counts identical to serial.  Bounded by
        ``max_worker_restarts``; past the budget the pool stays serial.
        Returns True when a new worker set is live.
        """
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self.processes == 0 \
                or self.worker_restarts >= self.max_worker_restarts:
            return False
        self.worker_restarts += 1
        obs.counter("pool.worker_restarts")
        self._pool = self._spawn()
        return self._pool is not None

    def close(self) -> None:
        """Terminate the workers.  Idempotent."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "VerifierPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- verification ---------------------------------------------------

    def verify_batch(self, batch: Sequence[Tuple[bytes, GroupSignature]],
                     period: Optional[bytes] = None,
                     check_revocation: bool = True,
                     traces: Optional[Sequence[Optional[TraceContext]]]
                     = None) -> List[Optional[Exception]]:
        """Drop-in parallel :func:`groupsig.verify_batch`.

        Returns one entry per input in input order: ``None`` on
        acceptance or the exception instance serial verification would
        have produced (same type, message, and ``token_index``).
        Chunks are submitted with at most ``max_inflight`` outstanding;
        results are collected strictly in submission order.  A chunk
        that times out or whose worker dies is re-run in this process
        along with every other chunk that was in flight on the broken
        worker set (their late results are discarded with the workers,
        so nothing is double-counted); the workers are then respawned
        for the rest of the batch, or -- once the restart budget is
        spent -- the remainder runs serially.

        ``traces`` (one :class:`~repro.obs.spans.TraceContext` or
        ``None`` per item) stitches each item's worker-side
        verification span under the supplied context; worker span
        snapshots are merged into the caller's ambient registry when
        chunks complete.  Op tallies are *replayed* into the caller's
        counter without re-attributing them to the caller's open span
        (they already live in the shipped worker spans).

        The batch runs in a ``pool.batch`` span and each chunk in a
        ``pool.chunk`` span under it, which on the parallel path runs
        from submit to collect.
        """
        if not batch:
            return []
        if traces is not None and len(traces) != len(batch):
            raise ParameterError("traces must align 1:1 with batch items")
        self._batch_respawns = 0
        reg = obs.active()
        chunks: List[List[Tuple[int, bytes, GroupSignature,
                                Optional[TraceContext]]]] = []
        for start in range(0, len(batch), self.chunk_size):
            chunks.append([
                (index, message, signature,
                 traces[index] if traces is not None else None)
                for index, (message, signature)
                in enumerate(batch[start:start + self.chunk_size], start)])

        results: List[Optional[Exception]] = [None] * len(batch)

        def absorb(chunk_result: list) -> None:
            for index, outcome, ops in chunk_result:
                results[index] = _decode_outcome(outcome)
                for event, amount in ops.items():
                    instrument.replay(event, amount)

        def run_serial(chunk, fallback: bool = True) -> None:
            if fallback:
                self.serial_fallbacks += 1
            with obs.span("pool.chunk"):
                absorb(_run_chunk(self.gpk, self.tokens, chunk, period,
                                  check_revocation))
            kind = "fallback" if fallback else "serial"
            obs.counter(f"pool.chunks_{kind}_total")

        # In flight: (chunk, handle, chunk span, deadline).  A plain
        # list -- collection scans it for *whichever* handle is ready.
        pending: List[tuple] = []
        remaining = deque(chunks)

        def recover(failed_chunk, counter_name: str) -> None:
            """One worker-set failure: requeue everything in flight
            in-process, then respawn.  The failed chunk and every
            pending chunk run through ``run_serial`` exactly once;
            whatever the old workers might still produce is orphaned
            by the terminate inside :meth:`respawn_workers`, so no
            result -- and no replayed op tally -- lands twice.  The
            abandoned chunks' spans are never finished: each re-run
            opens its own."""
            obs.counter(counter_name)
            run_serial(failed_chunk)
            while pending:
                chunk, _handle, _span, _deadline = pending.pop()
                run_serial(chunk)
            if self.processes \
                    and self.worker_restarts < self.max_worker_restarts:
                delay = self._next_respawn_delay()
                if delay > 0:
                    time.sleep(delay)
            self.respawn_workers()

        def collect_one() -> None:
            """Absorb the next *finished* chunk, whichever it is.

            Workers steal chunks from the shared task queue as they
            free up, so completion order is not submission order; the
            submission-order ``collect_oldest`` this replaces could
            leave finished results (and their pipe buffers) parked
            behind one slow chunk.  Each in-flight chunk keeps its own
            wall-clock deadline; the first to exceed it triggers the
            requeue-and-respawn recovery.
            """
            while True:
                for i, entry in enumerate(pending):
                    if entry[1].ready():
                        chunk, handle, span, _deadline = pending.pop(i)
                        try:
                            chunk_result, span_snap = handle.get(0)
                        except Exception:
                            # A dead/poisoned worker.
                            recover(chunk, "pool.chunk_failures_total")
                            return
                        absorb(chunk_result)
                        if span_snap is not None and reg is not None:
                            reg.merge_spans(span_snap)
                        obs.counter("pool.chunks_parallel_total")
                        if span is not None:
                            span.finish()
                        return
                now = time.monotonic()
                expired = next((i for i, entry in enumerate(pending)
                                if now >= entry[3]), None)
                if expired is not None:
                    chunk = pending.pop(expired)[0]
                    recover(chunk, "pool.chunk_failures_total")
                    return
                # Nothing ready, nothing expired: nap on the oldest
                # handle, then rescan (another chunk may finish first).
                pending[0][1].wait(0.05)

        with obs.span("pool.batch"):
            if self._pool is None:
                while remaining:
                    run_serial(remaining.popleft(), fallback=False)
            while remaining or pending:
                if self._pool is None:
                    # Restart budget spent (or spawn failed): pending is
                    # empty by construction, drain the rest serially.
                    while remaining:
                        run_serial(remaining.popleft())
                    break
                if remaining and len(pending) < self.max_inflight:
                    chunk = remaining.popleft()
                    task = (period, check_revocation,
                            [(index, message, signature.encode(),
                              ctx.to_tuple() if ctx is not None else None)
                             for index, message, signature, ctx in chunk])
                    try:
                        handle = self._pool.apply_async(_worker_run,
                                                        (task,))
                    except Exception:
                        # Pool already closed/terminated under us.
                        recover(chunk, "pool.submit_failures_total")
                        continue
                    # Submit to collect, under this batch's span.
                    span = (reg.start_span("pool.chunk")
                            if reg is not None else None)
                    pending.append((chunk, handle, span,
                                    time.monotonic() + self.task_timeout))
                    continue
                collect_one()
        obs.counter("pool.batch_items_total", len(batch))
        obs.gauge("pool.serial_fallbacks", self.serial_fallbacks)
        return results
