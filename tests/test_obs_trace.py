"""Causal tracing: context propagation, op attribution, stitching.

Covers the span-layer contracts the observability docs promise:

* explicit :class:`TraceContext` parenting strictly supersedes the
  thread-local stack (the cross-thread regression this layer fixed);
* manual ``start()``/``finish()`` spans never join the stack;
* the instrument->span bridge attributes op costs exclusively to the
  innermost open span, and ``instrument.replay`` bypasses the bridge;
* worker-style snapshot merging re-parents orphan traces;
* the verifier pool stitches worker-side verification spans under the
  submitting items' contexts (with namespaced span ids);
* the report layer reconstructs traces, waterfalls, and folded stacks.
"""

import random
import threading

import pytest

from repro import instrument, obs
from repro.core import groupsig
from repro.core.verifier_pool import VerifierPool
from repro.obs.report import (
    build_traces,
    render_waterfall,
    to_folded,
    top_slowest,
)


@pytest.fixture(autouse=True)
def _no_ambient_leak():
    assert obs.active() is None
    yield
    obs.uninstall()


class TestTraceContext:
    def test_tuple_round_trip(self):
        ctx = obs.TraceContext(trace_id="t9", span_id="s4")
        assert obs.TraceContext.from_tuple(ctx.to_tuple()) == ctx

    def test_from_tuple_none(self):
        assert obs.TraceContext.from_tuple(None) is None


class TestParenting:
    def test_stack_nesting_links_ids(self):
        reg = obs.MetricsRegistry()
        with reg.span("outer") as outer:
            with reg.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id

    def test_explicit_context_supersedes_stack(self):
        """Regression: a span opened with a foreign context must join
        that trace even while an unrelated span is open on this
        thread's stack."""
        reg = obs.MetricsRegistry()
        root = reg.start_span("handshake")
        with reg.span("unrelated") as unrelated:
            with reg.span("child", context=root.context) as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
                assert child.trace_id != unrelated.trace_id
        root.finish()

    def test_two_threads_one_trace(self):
        """Spans opened on two helper threads under one explicit
        context stitch into the same trace (per-thread stacks cannot
        link them)."""
        reg = obs.MetricsRegistry()
        root = reg.start_span("fanout")
        ctx = root.context

        def work(label):
            with reg.span("worker", context=ctx, label=label):
                pass

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        root.finish()
        records = reg.spans()
        workers = [r for r in records if r.name == "worker"]
        assert len(workers) == 2
        assert {r.trace_id for r in workers} == {root.trace_id}
        assert {r.parent_id for r in workers} == {root.span_id}
        ids = [r.span_id for r in records]
        assert len(ids) == len(set(ids))

    def test_started_span_does_not_join_stack(self):
        reg = obs.MetricsRegistry()
        event_span = reg.start_span("event")
        with reg.span("sync") as sync:
            # The started span is not this thread's innermost parent.
            assert sync.trace_id != event_span.trace_id
            assert sync.parent_id is None
        event_span.finish()

    def test_finish_is_idempotent(self):
        reg = obs.MetricsRegistry()
        span = reg.start_span("once")
        span.finish()
        span.finish()
        assert len(reg.spans()) == 1

    def test_explicit_trace_id_names_the_trace(self):
        reg = obs.MetricsRegistry()
        root = reg.start_span("handshake", trace_id="U-1#1")
        with reg.span("stage", context=root.context) as stage:
            assert stage.trace_id == "U-1#1"
        root.finish()


class TestOpAttribution:
    def test_ops_land_in_innermost_open_span(self):
        with obs.collecting() as reg:
            with reg.span("outer"):
                instrument.note("pairing", 2)
                with reg.span("inner"):
                    instrument.note("pairing", 3)
                instrument.note("exp", 1)
        by_name = {r.name: dict(r.ops) for r in reg.spans()}
        assert by_name["inner"] == {"pairing": 3}
        assert by_name["outer"] == {"pairing": 2, "exp": 1}

    def test_trace_span_sum_matches_instrument_total(self, gpk,
                                                     member_keys):
        rng = random.Random(31)
        with instrument.count_operations() as ops:
            with obs.collecting() as reg:
                with reg.span("handshake"):
                    sig = groupsig.sign(gpk, member_keys["a1"], b"m",
                                        rng=rng)
                    groupsig.verify(gpk, b"m", sig)
        (trace,) = build_traces(reg.snapshot())
        totals = ops.snapshot()
        for event in ("pairing", "exp", "psi"):
            assert trace["ops"].get(event, 0) == totals.get(event, 0)

    def test_replay_skips_the_span_sink(self):
        with instrument.count_operations() as ops:
            with obs.collecting() as reg:
                with reg.span("host"):
                    instrument.replay("pairing", 4)
        assert ops.total("pairing") == 4
        (record,) = reg.spans()
        assert dict(record.ops) == {}

    def test_sink_cleared_on_uninstall(self):
        with obs.collecting():
            pass
        # No registry installed: a note() must not blow up or leak
        # into the previous registry's spans.
        instrument.note("pairing")


class TestMergeReparenting:
    def test_orphan_worker_trace_is_adopted(self):
        parent = obs.MetricsRegistry()
        root = parent.start_span("handshake")
        worker = obs.MetricsRegistry(span_id_prefix="w7.")
        with worker.span("chunk") as chunk:
            assert chunk.span_id.startswith("w7.")
            with worker.span("item"):
                pass
        parent.merge_spans(worker.snapshot()["spans"],
                           reparent=root.context)
        root.finish()
        by_name = {r.name: r for r in parent.spans()}
        assert by_name["chunk"].trace_id == root.trace_id
        assert by_name["chunk"].parent_id == root.span_id
        # The orphan root's descendants follow it into the trace.
        assert by_name["item"].trace_id == root.trace_id
        assert by_name["item"].parent_id == by_name["chunk"].span_id

    def test_stitched_records_stay_untouched(self):
        parent = obs.MetricsRegistry()
        root = parent.start_span("handshake", trace_id="T")
        other = obs.TraceContext(trace_id="T", span_id="elsewhere")
        worker = obs.MetricsRegistry(span_id_prefix="w8.")
        with worker.span("item", context=other):
            pass
        parent.merge_spans(worker.snapshot()["spans"],
                           reparent=root.context)
        root.finish()
        by_name = {r.name: r for r in parent.spans()}
        assert by_name["item"].trace_id == "T"
        assert by_name["item"].parent_id == "elsewhere"


def _handshake_traces(snapshot, chunks):
    """The handshake traces of a pool run, after checking that the one
    other trace is the batch's own: ``pool.batch`` over ``chunks``,
    carrying no op (each item's ops are in its handshake's trace)."""
    traces = build_traces(snapshot)
    (batch,) = [t for t in traces if t["root"]["name"] == "pool.batch"]
    assert [r["name"] for r in batch["spans"]] == ["pool.batch"] + chunks
    assert batch["ops"] == {}
    return [t for t in traces if t is not batch]


class TestPoolStitching:
    def _batch(self, gpk, member_keys, count=3):
        rng = random.Random(77)
        batch = []
        for index in range(count):
            message = b"pool-%d" % index
            batch.append((message, groupsig.sign(
                gpk, member_keys["a1"], message, rng=rng)))
        return batch

    def test_serial_pool_stitches_and_attributes(self, gpk, member_keys):
        batch = self._batch(gpk, member_keys)
        with obs.collecting() as reg:
            roots = [reg.start_span("handshake", trace_id=f"hs#{i}")
                     for i in range(len(batch))]
            with VerifierPool(gpk, processes=0) as pool:
                outcomes = pool.verify_batch(
                    batch, traces=[r.context for r in roots])
            for root in roots:
                root.finish()
        assert outcomes == [None] * len(batch)
        traces = _handshake_traces(reg.snapshot(), ["pool.chunk"])
        assert {t["trace_id"] for t in traces} \
            == {f"hs#{i}" for i in range(len(batch))}
        for trace in traces:
            names = [r["name"] for r in trace["spans"]]
            assert "pool.verify_item" in names
            assert "groupsig.spk" in names     # nests via the stack
            assert trace["ops"]["pairing"] == 3   # |URL| = 0 verify

    def test_parallel_pool_ships_worker_spans(self, gpk, member_keys):
        batch = self._batch(gpk, member_keys)
        with obs.collecting() as reg:
            roots = [reg.start_span("handshake", trace_id=f"hs#{i}")
                     for i in range(len(batch))]
            with VerifierPool(gpk, processes=2, chunk_size=2) as pool:
                if pool._pool is None:
                    pytest.skip("platform cannot spawn worker processes")
                outcomes = pool.verify_batch(
                    batch, traces=[r.context for r in roots])
            for root in roots:
                root.finish()
        assert outcomes == [None] * len(batch)
        traces = _handshake_traces(reg.snapshot(),
                                   ["pool.chunk", "pool.chunk"])
        assert {t["trace_id"] for t in traces} \
            == {f"hs#{i}" for i in range(len(batch))}
        for trace in traces:
            items = [r for r in trace["spans"]
                     if r["name"] == "pool.verify_item"]
            assert len(items) == 1
            # Worker-minted ids are namespaced by pid, so merged
            # snapshots can never collide with parent-minted ids.
            assert items[0]["span_id"].startswith("w")
            assert items[0]["parent_id"] == trace["root"]["span_id"]
            assert trace["ops"]["pairing"] == 3

    def test_misaligned_traces_rejected(self, gpk, member_keys):
        from repro.errors import ParameterError
        batch = self._batch(gpk, member_keys, count=2)
        with VerifierPool(gpk, processes=0) as pool:
            with pytest.raises(ParameterError):
                pool.verify_batch(batch, traces=[None])


class TestReportLayer:
    def _registry(self):
        clock = iter(range(100))
        reg = obs.MetricsRegistry(clock=lambda: float(next(clock)))
        root = reg.start_span("handshake", trace_id="demo#1")
        with reg.span("verify", context=root.context):
            pass
        root.finish()
        return reg

    def test_build_traces_shapes(self):
        reg = self._registry()
        (trace,) = build_traces(reg.snapshot())
        assert trace["trace_id"] == "demo#1"
        assert trace["root"]["name"] == "handshake"
        assert [r["name"] for r in trace["spans"]] \
            == ["handshake", "verify"]
        assert trace["duration"] == trace["root"]["duration"]

    def test_top_slowest_orders_by_duration(self):
        reg = obs.MetricsRegistry(clock=lambda: 0.0)
        quick = reg.span(  # manual records with chosen durations
            "a", trace_id="fast")
        quick.start()
        quick.finish()
        from repro.obs.spans import SpanRecord
        reg._spans.record(SpanRecord(name="b", start=0.0, duration=9.0,
                                     trace_id="slow", span_id="sX"))
        ranked = top_slowest(build_traces(reg.snapshot()), n=1)
        assert [t["trace_id"] for t in ranked] == ["slow"]

    def test_waterfall_mentions_every_span(self):
        reg = self._registry()
        text = render_waterfall(build_traces(reg.snapshot()))
        assert "trace demo#1" in text
        assert "handshake" in text and "verify" in text

    def test_folded_stacks_nest_and_weight(self):
        reg = self._registry()
        folded = to_folded(build_traces(reg.snapshot()))
        lines = dict(line.rsplit(" ", 1)
                     for line in folded.strip().splitlines())
        assert "handshake;verify" in lines
        # Zero-duration virtual spans still carry weight >= 1.
        assert all(int(w) >= 1 for w in lines.values())
