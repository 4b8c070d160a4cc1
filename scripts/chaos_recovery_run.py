#!/usr/bin/env python
"""CI crash/restart chaos driver: durable city scenarios under churn.

For each chaos seed this script runs the same durable, tag-indexed,
gossiping 4-router scenario **twice** with an identical fault plan --
an fsync-lossy power cut, two staggered router kills, two restarts --
and requires the runs to replay bit-identically: same connection
outcomes, same per-router/user counters, same list versions, same
recovery summaries, same injected-fault tallies.  Any divergence is a
determinism regression in the recovery path and fails the job.

Artifacts (written into ``--out``):

* ``recovery-summary.json`` -- per-seed fingerprints, recovery
  summaries (records replayed, torn bytes), fault tallies, and the
  replay-identity verdict.
* ``telemetry-<seed>.jsonl`` -- windowed telemetry rollups from the
  first run of each seed (handshake outcomes, gossip traffic,
  recovery counters), one JSON object per window.
* ``incidents-<seed>.jsonl`` -- fault-correlated incident timelines
  with MTTD/MTTR from the health observatory, one JSON object per
  incident.  The incident list and the injector's fault-event log are
  part of the replay fingerprint, so detection timing diverging
  between runs also fails the job.

Usage: python scripts/chaos_recovery_run.py [--out DIR] [--seeds 101,202]
"""

import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.core.protocols.user_router import RetryPolicy  # noqa: E402
from repro.faults import (  # noqa: E402
    FaultInjector,
    FaultPlan,
    RouterFault,
    StorageFault,
)
from repro.wmn.scenario import Scenario, ScenarioConfig  # noqa: E402
from repro.wmn.topology import TopologyConfig  # noqa: E402

CHAOS_SEEDS = (101, 202, 303)
DURATION = 240.0

RETRY = RetryPolicy(initial_timeout=2.0, backoff_factor=2.0,
                    max_timeout=8.0, max_retries=4, jitter=0.1)


def build_scenario(seed: int) -> Scenario:
    """The durable 4-router city under 15% loss (mirrors the tier-1
    chaos suite's ``crash_scenario`` so CI artifacts describe the same
    system the tests gate)."""
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
        telemetry_window=30.0,
        health=True))
    for user in scenario.sim_users.values():
        user.connect_timeout = 60.0
    return scenario


def build_plan(seed: int, router_ids) -> FaultPlan:
    first, second = router_ids[0], router_ids[-1]
    return FaultPlan(
        seed=seed,
        router=(RouterFault("kill", at=40.0, router_id=first),
                RouterFault("restart", at=90.0, router_id=first),
                RouterFault("kill", at=60.0, router_id=second),
                RouterFault("restart", at=130.0, router_id=second)),
        storage=(StorageFault("fsync_loss", at=39.0, router_id=first),))


def run_once(seed: int):
    scenario = build_scenario(seed)
    ids = sorted(scenario.sim_routers)
    injector = FaultInjector(build_plan(seed, ids))
    injector.arm_scenario(scenario)
    scenario.run(DURATION)
    scenario.publish_metrics()
    fingerprint = {
        "connected": scenario.connected_fraction(),
        "router_metrics": scenario.router_metrics(),
        "user_metrics": scenario.user_metrics(),
        "versions": {rid: list(sim.router.list_versions())
                     for rid, sim in scenario.sim_routers.items()},
        "recoveries": {rid: sim.router.recovery.summary
                       for rid, sim in scenario.sim_routers.items()
                       if sim.router.recovery is not None},
        "injected": injector.snapshot(),
        "fault_events": injector.events_snapshot(),
        "incidents": scenario.incidents(injector),
        "alerts": scenario.alert_events(),
    }
    return fingerprint, scenario, injector


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the durable crash/restart chaos scenarios "
                    "twice per seed and verify bit-identical replay.")
    parser.add_argument("--out", default="chaos-recovery",
                        help="artifact directory (default: "
                             "chaos-recovery)")
    parser.add_argument("--seeds",
                        default=",".join(str(s) for s in CHAOS_SEEDS),
                        help="comma-separated chaos seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    os.makedirs(args.out, exist_ok=True)

    summary = {"duration": DURATION, "seeds": seeds, "runs": {}}
    ok = True
    for seed in seeds:
        first, scenario, injector = run_once(seed)
        second, _, _ = run_once(seed)
        identical = first == second
        ok &= identical
        summary["runs"][str(seed)] = {
            "replay_identical": identical,
            "fingerprint": first,
            "divergence": None if identical else {
                "first": first, "second": second},
        }
        telemetry = scenario.telemetry_jsonl()
        path = os.path.join(args.out, f"telemetry-{seed}.jsonl")
        with open(path, "w") as handle:
            handle.write(telemetry)
        path = os.path.join(args.out, f"incidents-{seed}.jsonl")
        with open(path, "w") as handle:
            handle.write(scenario.incidents_jsonl(injector))
        detected = sum(1 for i in first["incidents"] if i["detected"])
        status = "identical" if identical else "DIVERGED"
        print(f"chaos-recovery: seed {seed}: {status} "
              f"({first['injected']} faults, "
              f"{len(first['recoveries'])} recoveries, "
              f"{detected}/{len(first['incidents'])} incidents "
              f"detected, connected {first['connected']:.2f})")

    summary["ok"] = ok
    with open(os.path.join(args.out, "recovery-summary.json"),
              "w") as handle:
        json.dump(summary, handle, indent=2, default=str)
        handle.write("\n")
    if not ok:
        print("chaos-recovery: replay divergence detected",
              file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
