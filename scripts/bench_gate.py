#!/usr/bin/env python
"""Benchmark regression gate: fresh BENCH_*.json runs vs committed baselines.

Each committed ``BENCH_<slug>.json`` at the repo root is a baseline.
The gate re-runs the benchmarks that produce a chosen subset of them
into a scratch directory (``BENCH_OUTPUT_DIR`` redirects the reporter,
so the committed files are never touched), then diffs the ``values``
dicts metric by metric under per-metric tolerance rules:

* ``exact``      -- value must match the baseline bit for bit
                    (operation counts, wire byte sizes, round counts).
* ``min_ratio``  -- fresh value must be at least ``ratio`` times the
                    baseline (speedups: generous floors absorb host
                    noise while still catching a lost optimization).
* ``max_ratio``  -- fresh value must stay under ``ratio`` times the
                    baseline (latencies, if ever gated).
* ``min_value``  -- fresh value must be at least ``value * (1 - slack)``,
                    with **no baseline dependence**: absolute floors
                    from the paper's acceptance criteria (batch-core
                    speedup >= 6x, pool speedup >= 1x) hold on any host
                    regardless of what machine recorded the baseline.

A rule may carry ``"metric"`` to gate a metric under a distinct rule
key (so one metric can hold several rules), and ``"when"`` --
``{"metric": ..., "at_least": ...}`` evaluated against the *fresh*
values -- to apply only on qualifying hosts (e.g. the pool's >= 2x
gate only where ``host_cores >= 4``); a rule whose condition does not
hold is recorded as skipped, not passed.

Modes:

* ``--smoke``  -- E4 (TEST-preset message sizes) plus the
  ``revocation_scale``, ``crash_recovery``, and ``health_detection``
  scale/identity/detection gates, all deterministic and fast
  (seconds).  This is the CI pull-request gate.
* default      -- the smoke slugs plus E2 (SS512 operation counts;
  slower), the virtual-time handshake-loss sweep (exact completion
  counts), the obs overhead boolean, and the two batch-verification
  benches (``batch_core``, ``parallel_verify``; minutes on slow
  hosts, which is why they ride the full gate and not --smoke).

Exit status is non-zero when any gated metric regresses beyond its
tolerance, when a fresh value for a gated metric is missing, or when
the bench run itself fails.  ``--fresh-dir`` skips the bench run and
diffs existing JSON in that directory (used by the unit tests).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: slug -> pytest node ids that (re)generate BENCH_<slug>.json.
BENCH_TARGETS: Dict[str, List[str]] = {
    "E4": ["benchmarks/bench_handshake.py::test_e4_rounds_and_bytes"],
    "E2": ["benchmarks/bench_op_counts.py::test_e2_operation_count_table"],
    "handshake_loss": [
        "benchmarks/bench_handshake_loss.py::test_handshake_loss_sweep"],
    "obs_overhead": [
        "benchmarks/bench_obs_overhead.py::test_obs_overhead"],
    "batch_core": [
        "benchmarks/bench_batch_core.py::test_batch_core_speedup"],
    "parallel_verify": [
        "benchmarks/bench_parallel_verify.py::test_e10_parallel_verify"],
    "revocation_scale": [
        "benchmarks/bench_revocation_scale.py::test_revocation_scale"],
    "crash_recovery": [
        "benchmarks/bench_crash_recovery.py::test_crash_recovery"],
    "health_detection": [
        "benchmarks/bench_health_detection.py::test_health_detection"],
}

#: slug -> rule-key -> rule.  A rule is ``{"kind": "exact"}``,
#: ``{"kind": "min_ratio"|"max_ratio", "ratio": float}``, or
#: ``{"kind": "min_value", "value": float, "slack": float}``.  The
#: gated metric is the rule key unless the rule carries ``"metric"``;
#: an optional ``"when": {"metric": ..., "at_least": ...}`` (checked
#: against fresh values) makes the rule conditional.  Metrics not
#: listed here are reported as informational, never gated.
GATES: Dict[str, Dict[str, dict]] = {
    "E4": {
        "bytes_M_1": {"kind": "exact"},
        "bytes_M_2": {"kind": "exact"},
        "bytes_M_3": {"kind": "exact"},
        "bytes_Mt_1": {"kind": "exact"},
        "bytes_Mt_2": {"kind": "exact"},
        "bytes_Mt_3": {"kind": "exact"},
        "bytes_group_signature": {"kind": "exact"},
        "rounds_per_protocol": {"kind": "exact"},
    },
    "E2": {
        "sign_exp": {"kind": "exact"},
        "sign_pair": {"kind": "exact"},
        "verify_url0_exp": {"kind": "exact"},
        "verify_url0_pair": {"kind": "exact"},
        "verify_url1_exp": {"kind": "exact"},
        "verify_url1_pair": {"kind": "exact"},
        "verify_url5_exp": {"kind": "exact"},
        "verify_url5_pair": {"kind": "exact"},
        "verify_url10_exp": {"kind": "exact"},
        "verify_url10_pair": {"kind": "exact"},
        "fast_verify_exp": {"kind": "exact"},
        "fast_verify_pair": {"kind": "exact"},
    },
    # The loss sweep runs entirely in virtual time on seeded RNGs, so
    # completion / attempt / retransmit counts are bit-deterministic;
    # median delays stay informational (float formatting only).
    "handshake_loss": {
        f"{metric}_loss{loss}_retry_{mode}": {"kind": "exact"}
        for metric in ("completed", "attempts", "retransmits")
        for loss in (0, 5, 15, 30)
        for mode in ("off", "on")
    },
    # Wall-clock overhead is host-dependent; the bench itself reduces
    # it to a pass/fail boolean with orders-of-magnitude headroom, and
    # the gate checks that boolean exactly.
    "obs_overhead": {
        "overhead_le_10pct": {"kind": "exact"},
        "iterations": {"kind": "exact"},
    },
    # The batch core's acceptance floors are absolute (>= 6x at batch
    # 16 and >= 4x for one lone verify, both over the reference
    # classifier on the paper workload), so they are gated as
    # min_value -- a slower host cannot lower the bar by re-recording
    # the baseline.  The op accounting invariants are exact.
    "batch_core": {
        "batch_speedup_16": {"kind": "min_value", "value": 6.0,
                             "slack": 0.05},
        "single_verify_speedup": {"kind": "min_value", "value": 4.0,
                                  "slack": 0.05},
        "op_counts_identical": {"kind": "exact"},
        "url_size": {"kind": "exact"},
        "gate_batch_size": {"kind": "exact"},
        "pairings_per_sig": {"kind": "exact"},
        "exps_per_sig": {"kind": "exact"},
    },
    # The pool must never lose to serial on any host (auto-serial makes
    # that safe on 1 core), and must win >= 2x where it actually runs
    # workers across >= 4 cores.  ``host_cores`` is recorded by the
    # bench and gated >= 1, which doubles as a presence check.
    "parallel_verify": {
        "speedup": {"kind": "min_value", "value": 1.0, "slack": 0.05},
        "speedup_parallel": {"kind": "min_value", "metric": "speedup",
                             "value": 2.0, "slack": 0.05,
                             "when": {"metric": "host_cores",
                                      "at_least": 4}},
        "host_cores": {"kind": "min_value", "value": 1},
        "batch_size": {"kind": "exact"},
        "url_size": {"kind": "exact"},
        "chunk_size": {"kind": "exact"},
    },
    # Metropolitan revocation: the tag-index verify (the SPK, then the
    # indexed+cached tag check) must beat the linear verify (the SPK,
    # then the Eq.3 scan) >= 5x at |URL| = 1000 as an
    # absolute floor, the bit-identity and cache contracts are
    # booleans checked exactly, and the epidemic overlay must have
    # converged deterministically under the 15% loss model.  Router
    # count and URL sizes stay informational: the nightly large run
    # (BENCH_REVOCATION_LARGE=1) legitimately changes them.
    "revocation_scale": {
        "speedup_url1000": {"kind": "min_value", "value": 5.0,
                            "slack": 0.05},
        "outcomes_identical": {"kind": "exact"},
        "token_index_identical": {"kind": "exact"},
        "rebuild_pairing_free": {"kind": "exact"},
        "epidemic_converged": {"kind": "exact"},
        "epidemic_deterministic": {"kind": "exact"},
        "epidemic_loss_pct": {"kind": "exact"},
        "required_speedup": {"kind": "exact"},
    },
    # Durable crash recovery (ISSUE 9 acceptance): a crashed/restored
    # router must be observably indistinguishable from one that never
    # crashed -- the four identity booleans and the degraded re-entry
    # check are exact -- and the signed-checkpoint warm-up must beat
    # the cold index build >= 5x at |URL| = 1000 with *zero* pairings
    # on the warm path (both absolute floors, baseline-independent).
    "crash_recovery": {
        "outcomes_identical": {"kind": "exact"},
        "messages_identical": {"kind": "exact"},
        "token_index_identical": {"kind": "exact"},
        "replay_storm_identical": {"kind": "exact"},
        "degraded_reentry": {"kind": "exact"},
        "warmup_speedup": {"kind": "min_value", "value": 5.0,
                           "slack": 0.05},
        "warm_pairings": {"kind": "exact"},
        "cold_pairings": {"kind": "exact"},
        "warmup_url_size": {"kind": "exact"},
        "required_warmup_speedup": {"kind": "exact"},
    },
    # Health observatory (ISSUE 10 acceptance): every injected router
    # kill and channel sever detected within two telemetry windows,
    # zero alerts on the fault-free baseline, bit-identical incident
    # timelines per seed, and health evaluation costing <= 3% of the
    # run (a boolean like obs_overhead's, so host noise cannot flake
    # the gate as long as the ceiling holds).
    "health_detection": {
        "all_incidents_detected": {"kind": "exact"},
        "mttd_windows_le_2": {"kind": "exact"},
        "baseline_alerts": {"kind": "exact"},
        "timelines_identical": {"kind": "exact"},
        "overhead_le_3pct": {"kind": "exact"},
        "incidents_total": {"kind": "exact"},
        "incidents_detected": {"kind": "exact"},
        "chaos_seeds": {"kind": "exact"},
    },
}


def check_metric(name: str, rule: dict, baseline, fresh) -> Optional[str]:
    """One metric under one rule; returns a failure message or None."""
    if fresh is None:
        return f"{name}: missing from fresh run (baseline {baseline!r})"
    kind = rule["kind"]
    if kind == "exact":
        if fresh != baseline:
            return f"{name}: expected {baseline!r}, got {fresh!r}"
        return None
    if kind == "min_value":
        value = float(rule["value"])
        slack = float(rule.get("slack", 0.0))
        floor = value * (1.0 - slack)
        if float(fresh) < floor:
            return (f"{name}: {float(fresh):.4g} below required "
                    f"{value:g} (floor {floor:.4g} with {slack:g} slack)")
        return None
    if kind not in ("min_ratio", "max_ratio"):
        raise ValueError(f"unknown gate kind {kind!r} for {name}")
    ratio = float(rule["ratio"])
    baseline = float(baseline)
    fresh = float(fresh)
    if kind == "min_ratio":
        floor = baseline * ratio
        if fresh < floor:
            return (f"{name}: {fresh:.4g} below floor {floor:.4g} "
                    f"({ratio:g}x baseline {baseline:.4g})")
        return None
    ceiling = baseline * ratio
    if fresh > ceiling:
        return (f"{name}: {fresh:.4g} above ceiling {ceiling:.4g} "
                f"({ratio:g}x baseline {baseline:.4g})")
    return None


def compare(slug: str, baseline: dict, fresh: dict,
            gates: Optional[Dict[str, dict]] = None) -> dict:
    """Diff one experiment's values; returns a JSON-able result dict."""
    gates = GATES.get(slug, {}) if gates is None else gates
    base_values = baseline.get("values", {})
    fresh_values = fresh.get("values", {})
    failures = []
    checked = []
    skipped = []
    gated_metrics = {rule.get("metric", name)
                     for name, rule in gates.items()}
    for name, rule in sorted(gates.items()):
        metric = rule.get("metric", name)
        label = name if metric == name else f"{name}[{metric}]"
        when = rule.get("when")
        if when is not None:
            # Conditional gates look at the fresh run (the host that
            # produced it), not at whatever host cut the baseline.
            condition = fresh_values.get(when["metric"])
            if condition is None or condition < when["at_least"]:
                skipped.append(name)
                continue
        if rule["kind"] != "min_value" and metric not in base_values:
            # A baseline-relative gate with no committed baseline is a
            # config error, not a silent pass.  min_value floors are
            # absolute and carry no baseline dependence.
            failures.append(f"{label}: gated but absent from baseline")
            continue
        checked.append(name)
        message = check_metric(label, rule, base_values.get(metric),
                               fresh_values.get(metric))
        if message is not None:
            failures.append(message)
    informational = {name: {"baseline": base_values.get(name),
                            "fresh": fresh_values.get(name)}
                     for name in sorted(set(base_values) | set(fresh_values))
                     if name not in gated_metrics}
    return {"experiment": slug, "ok": not failures, "checked": checked,
            "skipped": skipped, "failures": failures,
            "informational": informational}


def load_json(path: str) -> Optional[dict]:
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def run_benches(slugs: List[str], out_dir: str) -> int:
    """Regenerate the selected BENCH files into ``out_dir``."""
    nodes = [node for slug in slugs for node in BENCH_TARGETS[slug]]
    env = dict(os.environ)
    env["BENCH_OUTPUT_DIR"] = out_dir
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--benchmark-disable",
         *nodes], cwd=REPO_ROOT, env=env)
    return proc.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff fresh benchmark output against committed "
                    "BENCH_*.json baselines.")
    parser.add_argument("--smoke", action="store_true",
                        help="fast gate: E4 (TEST preset) only")
    parser.add_argument("--fresh-dir", default=None,
                        help="diff existing BENCH_*.json in this directory "
                             "instead of running the benchmarks")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the full comparison result here")
    args = parser.parse_args(argv)

    slugs = (["E4", "revocation_scale", "crash_recovery",
              "health_detection"] if args.smoke
             else ["E4", "E2", "handshake_loss", "obs_overhead",
                   "batch_core", "parallel_verify", "revocation_scale",
                   "crash_recovery", "health_detection"])
    results = []
    exit_code = 0

    with tempfile.TemporaryDirectory(prefix="bench-gate-") as scratch:
        fresh_dir = args.fresh_dir or scratch
        if args.fresh_dir is None:
            rc = run_benches(slugs, fresh_dir)
            if rc != 0:
                print(f"bench-gate: benchmark run failed (exit {rc})",
                      file=sys.stderr)
                exit_code = rc or 1
        for slug in slugs:
            baseline = load_json(os.path.join(REPO_ROOT,
                                              f"BENCH_{slug}.json"))
            fresh = load_json(os.path.join(fresh_dir, f"BENCH_{slug}.json"))
            if baseline is None:
                results.append({"experiment": slug, "ok": False,
                                "failures": ["no committed baseline"]})
                exit_code = exit_code or 1
                continue
            if fresh is None:
                results.append({"experiment": slug, "ok": False,
                                "failures": ["no fresh BENCH json produced"]})
                exit_code = exit_code or 1
                continue
            result = compare(slug, baseline, fresh)
            results.append(result)
            if not result["ok"]:
                exit_code = exit_code or 1

    summary = {"ok": exit_code == 0, "mode": "smoke" if args.smoke
               else "full", "results": results}
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(summary, handle, indent=2)
            handle.write("\n")
    for result in results:
        status = "OK" if result["ok"] else "FAIL"
        checked = len(result.get("checked", []))
        print(f"bench-gate: {result['experiment']}: {status} "
              f"({checked} gated metrics)")
        for failure in result["failures"]:
            print(f"  regression: {failure}", file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
