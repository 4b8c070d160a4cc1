"""Observability overhead: traced vs untraced sign+verify (SS512).

The tracing layer's contract (DESIGN.md, docs/OBSERVABILITY.md) is
that full collection -- stage spans, the instrument->span op bridge,
timers, and counters -- costs at most 10% on the paper-comparable
SS512 sign+verify path, and that the *disabled* path (no registry
installed) stays in the noise.  This benchmark measures both and
records the machine-checked boolean ``overhead_le_10pct`` that
``scripts/bench_gate.py`` gates on.

Each of :data:`ROUNDS` rounds times the untraced and the traced
workload back to back, in an order that reverses from round to round,
and the recorded overhead is the median of the rounds' own traced /
untraced ratios: both sides of every ratio saw the same host, so a
drift of the host's speed between rounds cannot read as overhead.

Span bookkeeping is microseconds per handshake while one SS512
sign+verify is tens of milliseconds of pairing arithmetic, so the 10%
ceiling has orders-of-magnitude headroom; a failure here means the
hot path grew a per-operation cost (e.g. an op-sink doing real work
per ``note()``), not host noise.
"""

import random
import statistics
import time

from repro import obs
from repro.core import groupsig

ROUNDS = 9
ITERATIONS = 2
MAX_OVERHEAD = 0.10


def _seconds(callable_):
    start = time.perf_counter()
    callable_()
    return time.perf_counter() - start


def _paired_rounds(untraced, traced, rounds=ROUNDS):
    """``rounds`` pairs of (untraced s, traced s), alternating which
    side runs first."""
    pairs = []
    for index in range(rounds):
        if index % 2 == 0:
            pairs.append((_seconds(untraced), _seconds(traced)))
        else:
            traced_s = _seconds(traced)
            pairs.append((_seconds(untraced), traced_s))
    return pairs


def test_obs_overhead(reporter, ss512_scheme):
    rep = reporter("obs_overhead: tracing overhead on SS512 sign+verify")
    gpk, _master, keys = ss512_scheme
    rng = random.Random(17)
    message = b"obs-overhead"
    # Warm the engine tables outside every timed region (one-time,
    # per-gpk cost; both variants would otherwise race to pay it).
    gpk.engine.base_pairing()
    groupsig.verify(gpk, message, groupsig.sign(gpk, keys[0], message,
                                                rng=rng))

    def workload():
        for _ in range(ITERATIONS):
            signature = groupsig.sign(gpk, keys[0], message, rng=rng)
            groupsig.verify(gpk, message, signature)

    def traced_workload():
        registry = obs.MetricsRegistry()
        with obs.collecting(registry):
            workload()
        return registry

    pairs = _paired_rounds(workload, traced_workload)
    overhead = statistics.median(t / u for u, t in pairs) - 1.0
    untraced = statistics.median(u for u, _ in pairs)
    traced = statistics.median(t for _, t in pairs)

    registry = traced_workload()
    spans = registry.snapshot()["spans"]["records"]
    # Sanity: the traced run really collected stage spans with op
    # attribution (otherwise "low overhead" measures nothing).
    assert any(s["name"] == "groupsig.sign" and s["ops"].get("pairing")
               for s in spans)
    assert any(s["name"] == "groupsig.spk" and s["ops"].get("pairing")
               for s in spans)

    rep.table(
        ["variant", "median ms", "overhead (median paired ratio)"],
        [["untraced", f"{untraced * 1e3:.1f}", "--"],
         ["traced", f"{traced * 1e3:.1f}", f"{overhead * 100:+.1f}%"]])
    rep.record("iterations", ITERATIONS)
    rep.record("rounds", ROUNDS)
    rep.record("untraced_seconds", untraced)
    rep.record("traced_seconds", traced)
    rep.record("overhead_fraction", overhead)
    rep.record("max_overhead_fraction", MAX_OVERHEAD)
    rep.record("spans_per_traced_run", len(spans))
    rep.record("overhead_le_10pct", bool(overhead <= MAX_OVERHEAD))
    assert overhead <= MAX_OVERHEAD
