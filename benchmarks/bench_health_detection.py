"""health_detection -- chaos detection quality of the health observatory.

The observability claim (docs/OBSERVABILITY.md, "Health & incidents"):
with ``health=True`` the scenario's alert rules and per-router health
states detect every injected router kill and operator-channel sever
within at most two telemetry windows (MTTD <= 2), stay completely
silent on a fault-free run of the same mesh (zero false positives),
replay bit-identically per seed, and cost at most 3% of the run's
wall-clock time to evaluate.

Per chaos seed (101/202/303) the durable 4-router city from the CI
chaos driver runs three times: twice with an identical fault plan --
one router killed and restarted, another's operator channel severed
and restored -- and once fault-free.  The two chaos runs must produce
byte-identical incident-timeline JSONL; the fault-free run must fire
zero alerts and end with every router healthy.

Gates registered in scripts/bench_gate.py: ``all_incidents_detected``,
``mttd_windows_le_2``, ``baseline_alerts == 0``,
``timelines_identical``, ``overhead_le_3pct``.
"""

import time

from repro.core.protocols.user_router import RetryPolicy
from repro.faults import FaultInjector, FaultPlan, RouterFault
from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.topology import TopologyConfig

CHAOS_SEEDS = (101, 202, 303)
DURATION = 240.0
TELEMETRY_WINDOW = 30.0
MAX_MTTD_WINDOWS = 2
MAX_EVAL_OVERHEAD = 0.03

RETRY = RetryPolicy(initial_timeout=2.0, backoff_factor=2.0,
                    max_timeout=8.0, max_retries=4, jitter=0.1)


def _build_scenario(seed: int) -> Scenario:
    """The durable, tag-indexed, gossiping 4-router city under 15% loss
    (same shape as scripts/chaos_recovery_run.py), health enabled."""
    scenario = Scenario(ScenarioConfig(
        preset="TEST", seed=seed,
        topology=TopologyConfig(area_side=800.0, router_grid=2,
                                user_count=6, seed=seed,
                                access_range=600.0),
        group_sizes=(("Company X", 8),),
        beacon_interval=4.0,
        loss_probability=0.15,
        retry_policy=RETRY,
        durable=True,
        sharded_revocation=True,
        gossip_period=20.0,
        gossip_checkpoints=True,
        telemetry_window=TELEMETRY_WINDOW,
        health=True))
    for user in scenario.sim_users.values():
        user.connect_timeout = 60.0
    return scenario


def _build_plan(seed: int, router_ids) -> FaultPlan:
    """Kill + restart the first router, sever + restore the last
    router's operator channel -- one incident of each kind."""
    first, last = router_ids[0], router_ids[-1]
    return FaultPlan(
        seed=seed,
        router=(RouterFault("kill", at=40.0, router_id=first),
                RouterFault("restart", at=90.0, router_id=first),
                RouterFault("sever_channel", at=60.0, router_id=last),
                RouterFault("restore_channel", at=150.0,
                            router_id=last)))


def _chaos_run(seed: int):
    """One seeded chaos run; returns detection results and timings."""
    scenario = _build_scenario(seed)
    injector = FaultInjector(_build_plan(seed,
                                         sorted(scenario.sim_routers)))
    injector.arm_scenario(scenario)
    start = time.perf_counter()
    scenario.run(DURATION)
    run_seconds = time.perf_counter() - start
    return {
        "incidents": scenario.incidents(injector),
        "jsonl": scenario.incidents_jsonl(injector),
        "run_seconds": run_seconds,
        "eval_seconds": scenario.health_eval_seconds,
    }


def _baseline_run(seed: int):
    """Same mesh, no faults: must fire nothing and end healthy."""
    scenario = _build_scenario(seed)
    scenario.run(DURATION)
    return scenario.alert_events(), scenario.health_snapshot()


def test_health_detection(reporter):
    report = reporter("health_detection: chaos MTTD, false positives, "
                      "replay identity, and eval overhead")

    rows = []
    incidents_total = incidents_detected = 0
    max_mttd_windows = 0
    baseline_alerts = 0
    timelines_identical = True
    run_seconds = eval_seconds = 0.0
    for seed in CHAOS_SEEDS:
        first = _chaos_run(seed)
        second = _chaos_run(seed)
        timelines_identical &= first["jsonl"] == second["jsonl"]
        run_seconds += first["run_seconds"] + second["run_seconds"]
        eval_seconds += first["eval_seconds"] + second["eval_seconds"]

        incidents = first["incidents"]
        # The plan injects exactly one kill and one sever per seed.
        assert {i["incident"] for i in incidents} == \
            {"router-kill", "channel-sever"}
        detected = [i for i in incidents if i["detected"]]
        incidents_total += len(incidents)
        incidents_detected += len(detected)
        seed_mttd = max(int(i["mttd_windows"]) for i in detected)
        max_mttd_windows = max(max_mttd_windows, seed_mttd)

        alerts, snapshot = _baseline_run(seed)
        baseline_alerts += len(alerts)
        rows.append((seed, len(incidents), len(detected), seed_mttd,
                     len(alerts), snapshot["status"],
                     first["jsonl"] == second["jsonl"]))

    all_detected = incidents_detected == incidents_total > 0
    overhead = eval_seconds / run_seconds
    report.table(("seed", "incidents", "detected", "max MTTD (w)",
                  "baseline alerts", "baseline status", "identical"),
                 rows)
    report.row(f"gates: every incident detected, MTTD <= "
               f"{MAX_MTTD_WINDOWS} windows, 0 baseline alerts, "
               f"bit-identical replay, eval overhead <= "
               f"{MAX_EVAL_OVERHEAD:.0%} "
               f"(measured {overhead:.2%} of {run_seconds:.2f}s)")
    report.record("chaos_seeds", list(CHAOS_SEEDS))
    report.record("duration", DURATION)
    report.record("telemetry_window", TELEMETRY_WINDOW)
    report.record("incidents_total", incidents_total)
    report.record("incidents_detected", incidents_detected)
    report.record("all_incidents_detected", bool(all_detected))
    report.record("max_mttd_windows", max_mttd_windows)
    report.record("mttd_windows_le_2",
                  bool(0 < max_mttd_windows <= MAX_MTTD_WINDOWS))
    report.record("baseline_alerts", baseline_alerts)
    report.record("timelines_identical", bool(timelines_identical))
    report.record("run_seconds", run_seconds)
    report.record("health_eval_seconds", eval_seconds)
    report.record("eval_overhead_fraction", overhead)
    report.record("max_eval_overhead_fraction", MAX_EVAL_OVERHEAD)
    report.record("overhead_le_3pct", bool(overhead <= MAX_EVAL_OVERHEAD))

    assert all_detected
    assert max_mttd_windows <= MAX_MTTD_WINDOWS
    assert baseline_alerts == 0
    assert timelines_identical
    assert overhead <= MAX_EVAL_OVERHEAD, overhead
