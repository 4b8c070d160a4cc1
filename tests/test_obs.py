"""Unit tests for the observability layer (repro.obs).

Covers the registry primitives (counters, gauges, fixed-bucket
histograms, spans and the histogram each closed span feeds), snapshot
merging across threads, the ambient install/collecting discipline,
and both exporters.  The
integration half -- metrics flowing out of the instrumented crypto and
protocol paths -- lives in test_obs_integration.py.
"""

import json
import math
import threading

import pytest

from repro import obs
from repro.obs.registry import Histogram


class ManualTicker:
    """Deterministic clock: every call advances by ``step``."""

    def __init__(self, start=0.0, step=1.0):
        self.value = start
        self.step = step

    def __call__(self):
        current = self.value
        self.value += self.step
        return current


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        # bisect_left: a value equal to a bound lands IN that bound's
        # bucket; the first strictly greater value spills to the next.
        h.observe(1.0)
        h.observe(1.0000001)
        h.observe(2.0)
        h.observe(4.0)
        h.observe(4.0000001)   # overflow bucket
        assert h.counts == [1, 2, 1, 1]
        assert h.count == 5

    def test_underflow_lands_in_first_bucket(self):
        h = Histogram(bounds=(1.0, 2.0))
        h.observe(-5.0)
        h.observe(0.0)
        assert h.counts == [2, 0, 0]

    def test_sidecars(self):
        h = Histogram(bounds=(1.0,))
        for v in (0.5, 3.0, 1.5):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["sum"] == pytest.approx(5.0)
        assert snap["min"] == 0.5 and snap["max"] == 3.0

    def test_empty_snapshot_has_null_min_max(self):
        snap = Histogram(bounds=(1.0,)).snapshot()
        assert snap["min"] is None and snap["max"] is None
        assert snap["count"] == 0

    def test_bounds_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_merge_bucketwise(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b.snapshot())
        assert a.counts == [1, 1, 1]
        assert a.count == 3
        assert a.min == 0.5 and a.max == 9.0

    def test_merge_rejects_mismatched_bounds(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_default_buckets_cover_sub_ms_to_ten_seconds(self):
        bounds = obs.DEFAULT_LATENCY_BUCKETS
        assert bounds[0] <= 0.0001 and bounds[-1] >= 10.0
        assert list(bounds) == sorted(set(bounds))


class TestRegistry:
    def test_counters_accumulate(self):
        reg = obs.MetricsRegistry()
        reg.counter("x")
        reg.counter("x", 4)
        assert reg.counter_value("x") == 5
        assert reg.counter_value("absent") == 0

    def test_gauges_last_write_wins(self):
        reg = obs.MetricsRegistry()
        reg.gauge("load", 1.0)
        reg.gauge("load", 7.0)
        assert reg.gauge_value("load") == 7.0
        assert reg.gauge_value("absent") is None

    def test_timer_uses_injected_clock(self):
        # The span is the one timer: closing it observes op_seconds.
        reg = obs.MetricsRegistry(clock=ManualTicker(step=2.5))
        with reg.span("op"):
            pass
        snap = reg.histogram_snapshot("op_seconds")
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(2.5)

    def test_clock_accepts_dot_now_objects(self):
        class FakeClock:
            def now(self):
                return 42.0
        reg = obs.MetricsRegistry(clock=FakeClock())
        assert reg.clock() == 42.0

    def test_clock_rejects_junk(self):
        with pytest.raises(TypeError):
            obs.MetricsRegistry(clock=object())

    def test_cross_thread_updates_are_complete(self):
        reg = obs.MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.counter("hits")
                reg.observe("lat", 0.001)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter_value("hits") == 4000
        assert reg.histogram_snapshot("lat")["count"] == 4000

    def test_merge_snapshots(self):
        a = obs.MetricsRegistry(clock=ManualTicker())
        b = obs.MetricsRegistry(clock=ManualTicker())
        a.counter("n", 2)
        b.counter("n", 3)
        a.observe("lat", 0.5)
        b.observe("lat", 1.5)
        b.gauge("level", 9.0)
        with b.span("child"):
            pass
        merged = obs.merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.counter_value("n") == 5
        assert merged.gauge_value("level") == 9.0
        assert merged.histogram_snapshot("lat")["count"] == 2
        assert [s.name for s in merged.spans()] == ["child"]


class TestSpans:
    def test_parent_linkage_and_attrs(self):
        reg = obs.MetricsRegistry(clock=ManualTicker())
        with reg.span("outer", preset="TEST"):
            with reg.span("inner", n=1):
                pass
        inner, outer = reg.spans()   # inner closes first
        assert inner.name == "inner" and inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert dict(inner.attrs) == {"n": "1"}
        assert dict(outer.attrs) == {"preset": "TEST"}

    def test_span_durations_from_clock(self):
        reg = obs.MetricsRegistry(clock=ManualTicker(step=1.0))
        with reg.span("timed"):
            pass
        (record,) = reg.spans()
        assert record.duration == pytest.approx(1.0)

    def test_bounded_log_counts_drops(self):
        reg = obs.MetricsRegistry(max_spans=2)
        for i in range(5):
            with reg.span(f"s{i}"):
                pass
        snap = reg.snapshot()["spans"]
        assert len(snap["records"]) == 2
        assert snap["dropped"] == 3


class TestSpanHistograms:
    """A closed span is its region's one latency sample."""

    def test_histogram_counts_spans_the_bound_drops(self):
        reg = obs.MetricsRegistry(max_spans=2)
        for _ in range(5):
            with reg.span("stage"):
                pass
        snap = reg.snapshot()
        assert len(snap["spans"]["records"]) == 2
        assert snap["spans"]["dropped"] == 3
        assert snap["histograms"]["stage_seconds"]["count"] == 5

    def test_started_span_observes_its_duration(self):
        reg = obs.MetricsRegistry(clock=ManualTicker(start=10.0, step=2.5))
        span = reg.start_span("event")
        span.finish()
        span.finish()   # idempotent: one close, one sample
        (record,) = reg.spans()
        snap = reg.histogram_snapshot("event_seconds")
        assert snap["count"] == 1
        assert snap["sum"] == record.duration == 2.5

    def test_exception_still_closes_and_times_the_span(self):
        reg = obs.MetricsRegistry(clock=ManualTicker())
        with pytest.raises(ValueError):
            with reg.span("rejected"):
                raise ValueError("bad input")
        assert reg.histogram_snapshot("rejected_seconds")["count"] == 1

    def test_merged_worker_spans_observe_nothing(self):
        worker = obs.MetricsRegistry(clock=ManualTicker(),
                                     span_id_prefix="w1.")
        with worker.span("pool.verify_item"):
            pass
        snap = worker.snapshot()
        spans_only = obs.MetricsRegistry()
        spans_only.merge_spans(snap["spans"])
        assert [r.name for r in spans_only.spans()] == ["pool.verify_item"]
        assert spans_only.snapshot()["histograms"] == {}
        # A whole snapshot brings its histogram along, sampled once.
        merged = obs.MetricsRegistry()
        merged.merge_snapshot(snap)
        assert merged.histogram_snapshot(
            "pool.verify_item_seconds")["count"] == 1


class TestAmbient:
    def test_disabled_by_default(self):
        assert obs.active() is None
        # All module-level helpers must be harmless no-ops.
        obs.counter("ghost")
        obs.gauge("ghost", 1.0)
        obs.observe("ghost", 1.0)
        with obs.span("ghost"):
            pass
        assert obs.active() is None

    def test_collecting_installs_and_restores(self):
        with obs.collecting() as reg:
            assert obs.active() is reg
            obs.counter("seen")
        assert obs.active() is None
        assert reg.counter_value("seen") == 1

    def test_collecting_nests(self):
        with obs.collecting() as outer:
            with obs.collecting() as inner:
                obs.counter("k")
                assert obs.active() is inner
            assert obs.active() is outer
        assert inner.counter_value("k") == 1
        assert outer.counter_value("k") == 0

    def test_install_returns_previous(self):
        reg = obs.MetricsRegistry()
        assert obs.install(reg) is None
        try:
            assert obs.active() is reg
        finally:
            assert obs.install(None) is reg
        assert obs.active() is None


class TestExporters:
    def _snapshot(self):
        reg = obs.MetricsRegistry(clock=ManualTicker())
        reg.counter("groupsig.verify_accept_total", 3)
        reg.gauge("pool.serial_fallbacks", 1)
        reg.observe("groupsig.sign_seconds", 0.002,
                    buckets=(0.001, 0.01))
        reg.observe("groupsig.sign_seconds", 5.0)
        with reg.span("handshake", n=0):
            pass
        return reg.snapshot()

    def test_json_round_trips(self):
        data = json.loads(obs.to_json(self._snapshot()))
        assert data["counters"]["groupsig.verify_accept_total"] == 3
        assert data["gauges"]["pool.serial_fallbacks"] == 1.0
        hist = data["histograms"]["groupsig.sign_seconds"]
        assert hist["counts"] == [0, 1, 1]
        assert data["spans"]["records"][0]["name"] == "handshake"

    def test_json_strips_non_finite(self):
        reg = obs.MetricsRegistry()
        reg.gauge("bad", math.nan)
        reg.gauge("worse", math.inf)
        data = json.loads(obs.to_json(reg.snapshot()))
        assert data["gauges"]["bad"] is None
        assert data["gauges"]["worse"] is None

    def test_prometheus_shape(self):
        text = obs.to_prometheus(self._snapshot())
        lines = text.splitlines()
        assert "repro_groupsig_verify_accept_total 3" in text
        assert "repro_pool_serial_fallbacks 1.0" in text
        # Cumulative buckets: le="0.01" holds both earlier samples? No:
        # 0.002 <= 0.01, 5.0 overflows; cumulative 0.01 bucket is 1,
        # +Inf is the total count 2.
        assert any('le="0.01"' in l and l.endswith(" 1") for l in lines)
        assert any('le="+Inf"' in l and l.endswith(" 2") for l in lines)
        assert "repro_groupsig_sign_seconds_count 2" in text
        # A span's count and time are its own histogram's, exported
        # once as a histogram and not restated as span series.
        assert "repro_handshake_seconds_count 1" in text
        assert "repro_span_total" not in text
        assert "repro_span_seconds_total" not in text

    def test_prometheus_sanitizes_names(self):
        reg = obs.MetricsRegistry()
        reg.counter("weird-name.with spaces", 1)
        text = obs.to_prometheus(reg.snapshot())
        assert "repro_weird_name_with_spaces 1" in text

    def test_unknown_report_format_rejected(self):
        from repro.obs.report import render_snapshot
        with pytest.raises(ValueError):
            render_snapshot({"counters": {}}, fmt="xml")


#: Counters that only restated a span histogram's count.
DELETED_COUNTERS = ("groupsig.sign_total", "groupsig.verify_batch_total",
                    "groupsig.scan_total", "pool.batches_total",
                    "router.list_refresh_total")

#: A histogram of values, not of a region's latency.
VALUE_HISTOGRAMS = ("wmn.auth_delay_seconds",)


class TestSmoke:
    """One series per region, over the demo workload and the seeded
    traced scenario on TEST."""

    @pytest.fixture(scope="class", params=["demo", "scenario"])
    def snapshot(self, request):
        from repro.obs.report import (
            collect_demo_metrics,
            collect_scenario_metrics,
        )
        if request.param == "demo":
            return collect_demo_metrics().snapshot()
        scenario = collect_scenario_metrics(routers=2, users=4, seed=11,
                                            duration=40.0)
        return scenario.registry.snapshot()

    def test_every_latency_histogram_counts_its_spans(self, snapshot):
        assert snapshot["spans"]["dropped"] == 0
        spans = {}
        for record in snapshot["spans"]["records"]:
            spans[record["name"]] = spans.get(record["name"], 0) + 1
        timed = {name[:-len("_seconds")]: histogram["count"]
                 for name, histogram in snapshot["histograms"].items()
                 if name.endswith("_seconds")
                 and name not in VALUE_HISTOGRAMS}
        assert timed == spans

    def test_no_counter_restates_a_histogram(self, snapshot):
        assert not set(DELETED_COUNTERS) & set(snapshot["counters"])

    def test_prometheus_has_no_span_restatements(self, snapshot):
        text = obs.to_prometheus(snapshot)
        assert "repro_span_total" not in text
        assert "repro_span_seconds_total" not in text
        assert "repro_span_ops_total{" in text


class TestBatchPathSpans:
    """The router's batch path opens a ``router.precheck`` and a
    ``router.accept`` span per request, as its one-request path does, so
    the demo workload's 4 handshakes, 2-request batch and revoked
    handshake time 7 prechecks and 6 accepts."""

    @pytest.fixture(scope="class")
    def snapshot(self):
        from repro.obs.report import collect_demo_metrics
        return collect_demo_metrics().snapshot()

    def test_every_request_times_its_stages(self, snapshot):
        histograms = snapshot["histograms"]
        assert histograms["router.precheck_seconds"]["count"] == 7
        assert histograms["router.accept_seconds"]["count"] == 6

    def test_batched_accepts_hold_their_own_ops(self, snapshot):
        records = snapshot["spans"]["records"]
        [batch] = [record for record in records
                   if record["name"] == "router.batch"]
        assert batch["ops"] == {}
        children = [record for record in records
                    if record["parent_id"] == batch["span_id"]]
        assert sorted(record["name"] for record in children) == [
            "groupsig.verify_batch", "router.accept", "router.accept",
            "router.precheck", "router.precheck"]
        assert [record["ops"] for record in children
                if record["name"] == "router.accept"] == [
            {"aes_block": 4, "exp": 1, "mac": 1, "sym_encrypt": 1}] * 2
