"""Build an observability report from a short representative workload.

This is the library half of the ``python -m repro obs-report`` CLI
(:mod:`repro.__main__` owns the actual printing -- nothing in the
package body writes to stdout).  It runs a small but end-to-end
workload -- deployment setup, a handful of anonymous user-router
handshakes including a batch, session data, and a revocation rejection
-- under a fresh :class:`~repro.obs.registry.MetricsRegistry`, then
renders the collected metrics in the requested exporter format.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro import obs

#: Formats of the ``obs-report`` CLI.
FORMATS = ("json", "prom", "traces", "folded", "health", "incidents")

#: Formats that need a chaos scenario run (health evaluation + fault
#: ground truth) rather than the plain demo workload.
SCENARIO_FORMATS = ("health", "incidents")


def collect_demo_metrics(preset: str = "TEST", handshakes: int = 4,
                         registry: Optional["obs.MetricsRegistry"] = None,
                         seed: int = 7) -> "obs.MetricsRegistry":
    """Run the representative workload; return the filled registry."""
    from repro.core.deployment import Deployment   # deferred: heavy import
    from repro.errors import RevokedKeyError

    registry = registry or obs.MetricsRegistry()
    with obs.collecting(registry):
        with registry.span("obs-report.setup", preset=preset):
            deployment = Deployment.build(
                preset=preset, seed=seed,
                groups={"Company X": 4, "University Z": 4},
                users=[("alice", ["Company X"]),
                       ("bob", ["University Z"])],
                routers=["MR-1"])
        router = deployment.routers["MR-1"]
        names = ["alice", "bob"]
        for index in range(max(1, handshakes)):
            user = deployment.users[names[index % len(names)]]
            with registry.span("obs-report.handshake", n=index):
                beacon = router.make_beacon()
                request, pending = user.connect_to_router(beacon)
                confirm, router_session = router.process_request(request)
                session = user.complete_router_handshake(pending, confirm)
            router_session.receive(session.send(b"obs probe %d" % index))
        # One batch through the router's batch path, then a revocation
        # rejection so the reject counters are non-trivial.
        beacons = [router.make_beacon() for _ in range(2)]
        batch = [deployment.users[names[i % 2]]
                 .connect_to_router(beacons[i])[0]
                 for i in range(2)]
        router.process_request_batch(batch)
        index = deployment.users["bob"].credentials["University Z"].index
        deployment.operator.revoke_user_key(index)
        router.refresh_lists()
        try:
            deployment.connect("bob", "MR-1")
        except RevokedKeyError:
            pass
    return registry


def collect_scenario_metrics(routers: int = 2, users: int = 4,
                             seed: int = 11, duration: float = 40.0,
                             telemetry_window: float = 10.0,
                             area_side: float = 600.0):
    """Run a small seeded traced simulation; return the Scenario.

    The default shape (2 routers, 4 users, 600 m side) is the
    acceptance scenario from DESIGN.md: dense enough that several
    users complete the 3-message handshake, small enough to run in
    well under a second.  The returned scenario's ``registry`` holds
    the stitched handshake traces and ``telemetry_jsonl()`` the
    windowed rollups.
    """
    from repro.wmn.scenario import Scenario, ScenarioConfig
    from repro.wmn.topology import TopologyConfig

    grid = 1
    while grid * grid < max(1, routers):
        grid += 1
    config = ScenarioConfig(
        seed=seed,
        topology=TopologyConfig(area_side=area_side, router_grid=grid,
                                router_count=routers, user_count=users,
                                seed=seed),
        tracing=True, telemetry_window=telemetry_window)
    scenario = Scenario(config)
    scenario.run(duration)
    scenario.publish_metrics()
    return scenario


def collect_incident_metrics(seed: int = 101, duration: float = 240.0,
                             telemetry_window: float = 30.0):
    """Run a seeded chaos scenario with health evaluation enabled.

    The workload is a compact version of the CI chaos driver: a
    durable 4-router city under 15% loss where one router is killed
    and restarted and another has its operator channel severed and
    restored.  Returns ``(scenario, injector)`` -- the scenario holds
    the health snapshot and alert history, the injector the
    ground-truth fault log that :func:`~repro.obs.health.
    correlate_incidents` joins against.
    """
    from repro.core.protocols.user_router import RetryPolicy
    from repro.faults import FaultInjector, FaultPlan, RouterFault
    from repro.wmn.scenario import Scenario, ScenarioConfig
    from repro.wmn.topology import TopologyConfig

    scenario = Scenario(ScenarioConfig(
        preset="TEST", seed=seed,
        topology=TopologyConfig(area_side=800.0, router_grid=2,
                                user_count=6, seed=seed,
                                access_range=600.0),
        group_sizes=(("Company X", 8),),
        beacon_interval=4.0,
        loss_probability=0.15,
        retry_policy=RetryPolicy(initial_timeout=2.0, backoff_factor=2.0,
                                 max_timeout=8.0, max_retries=4,
                                 jitter=0.1),
        durable=True,
        sharded_revocation=True,
        gossip_period=20.0,
        gossip_checkpoints=True,
        telemetry_window=telemetry_window,
        health=True))
    for user in scenario.sim_users.values():
        user.connect_timeout = 60.0
    ids = sorted(scenario.sim_routers)
    injector = FaultInjector(FaultPlan(
        seed=seed,
        router=(RouterFault("kill", at=40.0, router_id=ids[0]),
                RouterFault("restart", at=90.0, router_id=ids[0]),
                RouterFault("sever_channel", at=60.0,
                            router_id=ids[-1]),
                RouterFault("restore_channel", at=150.0,
                            router_id=ids[-1]))))
    injector.arm_scenario(scenario)
    scenario.run(duration)
    scenario.publish_metrics()
    return scenario, injector


# -- causal trace reconstruction ------------------------------------------


def build_traces(snapshot: Dict[str, object]) -> List[Dict[str, object]]:
    """Group a snapshot's span records into per-trace structures.

    Returns one dict per trace id, sorted by root start time:
    ``trace_id``, ``spans`` (records sorted by start, then span id),
    ``root`` (the record with no in-trace parent; ties broken by
    earliest start), ``duration`` (the root's), and ``ops`` (per-op
    totals summed over every span in the trace -- by construction of
    the instrument bridge these reproduce the global counters).
    Records that never got a trace id (plain stack spans from
    non-traced code) are skipped.
    """
    by_trace: Dict[str, List[dict]] = {}
    for record in snapshot.get("spans", {}).get("records", ()):
        trace_id = record.get("trace_id")
        if trace_id is None:
            continue
        by_trace.setdefault(str(trace_id), []).append(record)
    traces: List[Dict[str, object]] = []
    for trace_id, records in by_trace.items():
        records.sort(key=lambda r: (float(r["start"]),
                                    str(r.get("span_id") or "")))
        ids = {r.get("span_id") for r in records}
        roots = [r for r in records
                 if r.get("parent_id") is None
                 or r.get("parent_id") not in ids]
        root = roots[0] if roots else records[0]
        ops: Dict[str, int] = {}
        for record in records:
            for op, amount in dict(record.get("ops") or {}).items():
                ops[op] = ops.get(op, 0) + int(amount)
        traces.append({"trace_id": trace_id, "spans": records,
                       "root": root, "duration": float(root["duration"]),
                       "ops": ops})
    traces.sort(key=lambda t: (float(t["root"]["start"]), t["trace_id"]))
    return traces


def top_slowest(traces: Sequence[Dict[str, object]], n: int = 5
                ) -> List[Dict[str, object]]:
    """The ``n`` traces with the longest root duration, slowest first
    (ties broken by trace id for determinism)."""
    ranked = sorted(traces, key=lambda t: (-float(t["duration"]),
                                           str(t["trace_id"])))
    return ranked[:max(0, n)]


def _format_ops(ops: Dict[str, int]) -> str:
    return " ".join(f"{op}={amount}" for op, amount in sorted(ops.items()))


def _span_children(spans: Sequence[dict]) -> Dict[object, List[dict]]:
    """Map parent span id -> children, preserving start order; spans
    whose parent is outside the trace hang off ``None``."""
    ids = {record.get("span_id") for record in spans}
    children: Dict[object, List[dict]] = {}
    for record in spans:
        parent = record.get("parent_id")
        if parent not in ids:
            parent = None
        children.setdefault(parent, []).append(record)
    return children


def render_waterfall(traces: Sequence[Dict[str, object]],
                     top: Optional[int] = None) -> str:
    """Text waterfall: one tree per trace, children indented under
    their parent, each line showing the start offset from the trace
    root, the span duration, attrs, and attributed op counts."""
    if top is not None:
        traces = top_slowest(traces, top)
    lines: List[str] = []
    for trace in traces:
        spans: List[dict] = trace["spans"]   # type: ignore[assignment]
        origin = float(trace["root"]["start"])
        ops = _format_ops(trace["ops"])      # type: ignore[arg-type]
        lines.append(f"trace {trace['trace_id']}  "
                     f"spans={len(spans)}  "
                     f"duration={float(trace['duration']):.6f}s"
                     + (f"  ops: {ops}" if ops else ""))
        children = _span_children(spans)

        def walk(record: dict, depth: int) -> None:
            offset = float(record["start"]) - origin
            attrs = dict(record.get("attrs") or {})
            attr_text = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
            op_text = _format_ops(dict(record.get("ops") or {}))
            line = (f"  [+{offset:9.6f}s {float(record['duration']):9.6f}s] "
                    + "  " * depth + str(record["name"]))
            if attr_text:
                line += f"  {attr_text}"
            if op_text:
                line += f"  ops: {op_text}"
            lines.append(line)
            for child in children.get(record.get("span_id"), ()):
                if child is not record:
                    walk(child, depth + 1)

        for orphan in children.get(None, ()):
            walk(orphan, 0)
        lines.append("")
    return "\n".join(lines)


def to_folded(traces: Sequence[Dict[str, object]]) -> str:
    """Folded-stack (FlameGraph / speedscope "collapsed") output.

    One ``a;b;c weight`` line per distinct root-to-span path, weight
    in integer microseconds of *self* time (child time excluded).
    Under the sim clock nested stage spans often measure 0 virtual
    seconds; every span still contributes ``max(1, usec)`` so the
    causal structure survives into the flame graph.
    """
    stacks: Dict[str, int] = {}
    for trace in traces:
        spans: List[dict] = trace["spans"]   # type: ignore[assignment]
        children = _span_children(spans)

        def walk(record: dict, prefix: str) -> None:
            path = (f"{prefix};{record['name']}" if prefix
                    else str(record["name"]))
            child_time = 0.0
            for child in children.get(record.get("span_id"), ()):
                if child is record:
                    continue
                child_time += float(child["duration"])
                walk(child, path)
            self_seconds = max(0.0, float(record["duration"]) - child_time)
            weight = max(1, int(self_seconds * 1e6))
            stacks[path] = stacks.get(path, 0) + weight

        for orphan in children.get(None, ()):
            walk(orphan, "")
    return "".join(f"{path} {weight}\n"
                   for path, weight in sorted(stacks.items()))


def render_health(snapshot: Dict[str, object],
                  alerts: Sequence[Dict[str, object]] = ()) -> str:
    """Human-readable ``/health`` judgment plus the alert history
    (the ``obs-report --format health`` output)."""
    lines = [f"status: {snapshot['status']}  "
             f"(t={float(snapshot['t']):.1f}, "     # type: ignore[arg-type]
             f"window {snapshot['window']})"]
    routers: Dict[str, dict] = snapshot["routers"]  # type: ignore[assignment]
    for router_id in sorted(routers):
        entry = routers[router_id]
        reasons = "; ".join(entry["reasons"]) or "-"
        lines.append(f"  {router_id}: {entry['state']:<9} {reasons}")
    mesh = dict(snapshot.get("mesh") or {})
    if mesh.get("reasons"):
        lines.append("  mesh: " + "; ".join(mesh["reasons"]))
    if alerts:
        lines.append("alerts:")
        for event in alerts:
            lines.append(
                f"  [{event['event']:>8}] {event['rule']} "
                f"({event['severity']}) window {event['window']} "
                f"t={float(event['t']):.1f} "       # type: ignore[arg-type]
                f"observed={event['observed']}")
    else:
        lines.append("alerts: none")
    return "\n".join(lines) + "\n"


def render_snapshot(snapshot, fmt: str = "json") -> str:
    """Render an already-collected snapshot in ``fmt``."""
    if fmt == "json":
        return obs.to_json(snapshot)
    if fmt == "prom":
        return obs.to_prometheus(snapshot)
    if fmt == "traces":
        return render_waterfall(build_traces(snapshot))
    if fmt == "folded":
        return to_folded(build_traces(snapshot))
    raise ValueError(f"unknown report format {fmt!r}; pick from {FORMATS}")
