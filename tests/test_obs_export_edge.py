"""Exporter edge cases: label escaping, empty exports, JSONL rollups.

The Prometheus text exposition format requires backslash, double-quote,
and newline escaping inside label values; span names become the
``name`` label of the aggregated span series, so hostile or merely
unusual span names must not corrupt the exposition.  The rollup JSONL
format must round-trip exactly (the CI chaos job uploads it as an
artifact consumed by tooling).
"""

import math

from repro import obs
from repro.obs.export import _escape_label_value
from repro.obs.rollup import (
    TelemetryRollup,
    _quantile_from_buckets,
    read_jsonl,
    to_jsonl,
)


class TestLabelEscaping:
    def test_escape_rules(self):
        assert _escape_label_value('pla"in') == 'pla\\"in'
        assert _escape_label_value("back\\slash") == "back\\\\slash"
        assert _escape_label_value("new\nline") == "new\\nline"
        # Backslash escapes first, or the others double up.
        assert _escape_label_value('\\"') == '\\\\\\"'
        assert _escape_label_value("plain") == "plain"

    def test_span_name_with_quotes_and_newlines(self):
        from repro import instrument
        reg = obs.MetricsRegistry()
        with obs.collecting(reg):
            with reg.span('oddly "named"\nspan'):
                instrument.note("pairing")
        text = obs.to_prometheus(reg.snapshot())
        assert 'name="oddly \\"named\\"\\nspan"' in text
        # The span's histogram name is sanitized, not escaped.
        assert "repro_oddly__named__span_seconds_count 1" in text
        # Every exposition line stays a single physical line.
        assert all(line.startswith(("#", "repro_"))
                   for line in text.strip().splitlines())

    def test_span_op_labels_escaped_and_summed(self):
        reg = obs.MetricsRegistry()
        with obs.collecting(reg):
            with reg.span("stage"):
                from repro import instrument
                instrument.note("pairing", 2)
            with reg.span("stage"):
                from repro import instrument
                instrument.note("pairing", 3)
        text = obs.to_prometheus(reg.snapshot())
        assert 'repro_span_ops_total{name="stage",op="pairing"} 5' in text
        assert "repro_stage_seconds_count 2" in text


class TestEmptyExports:
    def test_empty_registry_prometheus(self):
        assert obs.to_prometheus(obs.MetricsRegistry().snapshot()) == ""

    def test_empty_snapshot_prometheus(self):
        assert obs.to_prometheus({}) == ""

    def test_empty_registry_json_round_trip(self):
        import json
        snapshot = obs.MetricsRegistry().snapshot()
        parsed = json.loads(obs.to_json(snapshot))
        assert parsed["counters"] == {}
        assert parsed["spans"] == {"records": [], "dropped": 0}


class TestRollupJsonl:
    def test_round_trip(self):
        clock = [0.0]
        reg = obs.MetricsRegistry(clock=lambda: clock[0])
        rollup = TelemetryRollup(reg)
        reg.counter("handshakes", 3)
        reg.observe("delay", 0.004)
        reg.gauge("connected", 0.5)
        clock[0] = 10.0
        rollup.roll(10.0)
        reg.counter("handshakes", 2)
        clock[0] = 20.0
        rollup.roll(20.0)
        windows = rollup.windows()
        assert read_jsonl(to_jsonl(windows)) == windows
        assert windows[0]["counters"] == {"handshakes": 3}
        assert windows[1]["counters"] == {"handshakes": 2}
        # Quiet metrics are omitted from later windows.
        assert "delay" not in windows[1]["histograms"]
        assert windows[0]["histograms"]["delay"]["count"] == 1

    def test_read_jsonl_ignores_blank_lines(self):
        assert read_jsonl("\n\n") == []
        assert read_jsonl('{"a": 1}\n\n{"b": 2}\n') == [{"a": 1}, {"b": 2}]

    def test_retention_bound_counts_drops(self):
        reg = obs.MetricsRegistry(clock=lambda: 0.0)
        rollup = TelemetryRollup(reg, max_windows=2)
        for t in range(4):
            reg.counter("c")
            rollup.roll(float(t))
        assert rollup.dropped == 2
        assert [w["index"] for w in rollup.windows()] == [2, 3]

    def test_quantile_from_buckets(self):
        bounds = [0.001, 0.01, 0.1]
        # 2 samples <= 1ms, 1 sample in the overflow bucket.
        counts = [2, 0, 0, 1]
        assert _quantile_from_buckets(bounds, counts, 0.5) == 0.001
        # Overflow samples report the last finite bound.
        assert _quantile_from_buckets(bounds, counts, 0.99) == 0.1
        assert _quantile_from_buckets(bounds, [0, 0, 0, 0], 0.5) is None

    def test_percentiles_are_finite_json(self):
        reg = obs.MetricsRegistry(clock=lambda: 0.0)
        rollup = TelemetryRollup(reg)
        reg.observe("lat", 1e9)   # overflow bucket
        window = rollup.roll(0.0)
        p99 = window["histograms"]["lat"]["p99"]
        assert p99 is not None and math.isfinite(p99)
        assert read_jsonl(to_jsonl([window])) == [window]
