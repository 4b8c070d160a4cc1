"""``python -m repro`` -- a 30-second guided demo of PEACE.

Runs the full lifecycle on the fast TEST parameters: setup, anonymous
handshake, session data, audit, law-authority trace, and revocation.
Pass a preset name to run on stronger parameters::

    python -m repro            # TEST parameters (instant)
    python -m repro SS512      # ~80-bit security (a few seconds)

The ``obs-report`` subcommand instead runs a short instrumented
workload and dumps the collected metrics::

    python -m repro obs-report                    # JSON snapshot
    python -m repro obs-report --format prom      # Prometheus text
    python -m repro obs-report --preset SS512 --handshakes 8

With ``--workload scenario`` it runs a seeded traced simulation and
can render the stitched causal handshake traces::

    python -m repro obs-report --workload scenario --format traces
    python -m repro obs-report --workload scenario --format traces --top 3
    python -m repro obs-report --workload scenario --format folded \
        --rollup-out rollup.jsonl --folded-out stacks.folded

The ``health`` and ``incidents`` formats run a seeded chaos scenario
(router kill/restart + operator-channel sever/restore) with the health
observatory enabled and print the ``/health`` judgment or the
fault-correlated incident timelines with MTTD/MTTR::

    python -m repro obs-report --format health
    python -m repro obs-report --format incidents --seed 202 \
        --incidents-out incidents.jsonl
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import Deployment
from repro.core.audit import audit_by_session
from repro.errors import RevokedKeyError


def _obs_report(argv) -> int:
    from repro import obs
    from repro.obs import report as obs_report

    parser = argparse.ArgumentParser(
        prog="python -m repro obs-report",
        description="Run a short instrumented workload and print its "
                    "metrics snapshot, causal traces, or folded stacks.")
    parser.add_argument("--format", choices=obs_report.FORMATS,
                        default="json")
    parser.add_argument("--workload", choices=("demo", "scenario"),
                        default="demo",
                        help="demo: direct API handshakes; scenario: "
                             "seeded traced WMN simulation")
    parser.add_argument("--preset", default="TEST")
    parser.add_argument("--handshakes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=None,
                        help="default: 7 for demo, 11 for scenario, "
                             "101 for health/incidents")
    parser.add_argument("--duration", type=float, default=None,
                        help="scenario: virtual seconds to simulate "
                             "(default: 40, or 240 for "
                             "health/incidents)")
    parser.add_argument("--routers", type=int, default=2)
    parser.add_argument("--users", type=int, default=4)
    parser.add_argument("--window", type=float, default=None,
                        help="scenario: telemetry rollup window in "
                             "virtual seconds (default: 10, or 30 for "
                             "health/incidents)")
    parser.add_argument("--top", type=int, default=None, metavar="N",
                        help="traces format: only the N slowest traces")
    parser.add_argument("--rollup-out", metavar="PATH",
                        help="scenario: write telemetry rollup JSONL")
    parser.add_argument("--folded-out", metavar="PATH",
                        help="also write folded stacks to PATH")
    parser.add_argument("--incidents-out", metavar="PATH",
                        help="health/incidents: write incident "
                             "timelines as JSONL")
    args = parser.parse_args(argv)

    if args.format in obs_report.SCENARIO_FORMATS:
        scenario, injector = obs_report.collect_incident_metrics(
            seed=101 if args.seed is None else args.seed,
            duration=240.0 if args.duration is None else args.duration,
            telemetry_window=30.0 if args.window is None
            else args.window)
        if args.rollup_out:
            with open(args.rollup_out, "w") as handle:
                handle.write(scenario.telemetry_jsonl())
        if args.incidents_out:
            with open(args.incidents_out, "w") as handle:
                handle.write(scenario.incidents_jsonl(injector))
        if args.format == "health":
            print(obs_report.render_health(scenario.health_snapshot(),
                                           scenario.alert_events()),
                  end="")
        else:
            print(obs.render_incidents(scenario.incidents(injector)),
                  end="")
        return 0
    if args.incidents_out:
        parser.error("--incidents-out needs --format health|incidents")

    if args.workload == "scenario":
        scenario = obs_report.collect_scenario_metrics(
            routers=args.routers, users=args.users,
            seed=11 if args.seed is None else args.seed,
            duration=40.0 if args.duration is None else args.duration,
            telemetry_window=10.0 if args.window is None
            else args.window)
        snapshot = scenario.registry.snapshot()
        if args.rollup_out:
            with open(args.rollup_out, "w") as handle:
                handle.write(scenario.telemetry_jsonl())
    else:
        registry = obs_report.collect_demo_metrics(
            preset=args.preset, handshakes=args.handshakes,
            seed=7 if args.seed is None else args.seed)
        snapshot = registry.snapshot()
        if args.rollup_out:
            parser.error("--rollup-out needs --workload scenario")

    if args.folded_out:
        with open(args.folded_out, "w") as handle:
            handle.write(obs_report.to_folded(
                obs_report.build_traces(snapshot)))
    if args.format == "traces" and args.top is not None:
        print(obs_report.render_waterfall(
            obs_report.build_traces(snapshot), top=args.top))
    else:
        print(obs_report.render_snapshot(snapshot, args.format))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "obs-report":
        return _obs_report(argv[1:])
    preset = argv[0] if argv else "TEST"
    print(f"PEACE demo on the {preset} parameter set")
    start = time.perf_counter()

    deployment = Deployment.build(
        preset=preset, seed=1,
        groups={"Company X": 4, "University Z": 4},
        users=[("alice", ["Company X"]), ("bob", ["University Z"])],
        routers=["MR-1"])
    print(f"  [setup]  NO + TTP + 2 GMs + 2 users + 1 router "
          f"({time.perf_counter() - start:.1f}s)")

    user_session, router_session = deployment.connect("alice", "MR-1")
    print(f"  [auth]   anonymous 3-way handshake, session "
          f"{user_session.session_id.hex()[:12]}")
    router_session.receive(user_session.send(b"hello"))
    print("  [data]   MAC-authenticated packet delivered")

    audit = audit_by_session(deployment.operator, deployment.network_log,
                             user_session.session_id)
    print(f"  [audit]  NO sees only: {audit.describe()}")
    trace = deployment.law_authority.trace_session(
        deployment.operator, deployment.network_log, deployment.gms,
        user_session.session_id)
    print(f"  [trace]  law authority (NO+GM jointly): "
          f"{trace.identity.name}")

    index = deployment.users["bob"].credentials["University Z"].index
    deployment.operator.revoke_user_key(index)
    deployment.routers["MR-1"].refresh_lists()
    try:
        deployment.connect("bob", "MR-1")
        print("  [revoke] ERROR: revoked user connected")
        return 1
    except RevokedKeyError:
        print("  [revoke] bob's revoked key rejected network-wide")
    print(f"total {time.perf_counter() - start:.1f}s -- see examples/ "
          "and EXPERIMENTS.md for more")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
