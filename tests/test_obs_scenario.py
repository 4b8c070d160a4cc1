"""Acceptance: causal handshake traces from the simulated WMN.

The ISSUE's end-to-end criterion: a seeded 2-router/4-user traced
scenario yields at least one *fully stitched* handshake trace --
user-node spans and router-node spans under one trace id -- whose
per-span pairing/exponentiation tallies sum to the instrument totals,
renders as a waterfall and as folded stacks, and keeps stitching
through an M.2 retransmission.  Time-series rollups cover the run on
the sim clock.
"""

import pytest

from repro import instrument, obs
from repro.core.protocols.user_router import RetryPolicy
from repro.faults import FaultInjector, FaultPlan, RadioFault
from repro.obs.report import (
    build_traces,
    collect_scenario_metrics,
    render_waterfall,
    to_folded,
)
from repro.obs.rollup import read_jsonl
from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.topology import TopologyConfig


@pytest.fixture(autouse=True)
def _no_ambient_leak():
    assert obs.active() is None
    yield
    obs.uninstall()


USER_SPANS = {"user.beacon_rx", "user.process_beacon",
              "user.beacon_validate", "user.confirm", "user.complete"}
ROUTER_SPANS = {"router.service", "router.handshake", "router.precheck",
                "router.verify", "router.accept", "groupsig.verify",
                "groupsig.spk"}


def connected_traces(snapshot):
    return [t for t in build_traces(snapshot)
            if dict(t["root"]["attrs"]).get("outcome") == "connected"]


class TestScenarioTraces:
    @pytest.fixture(scope="class")
    def scenario(self):
        # Same shape as collect_scenario_metrics(routers=2, users=4),
        # built by hand so the op counter brackets *only* the run
        # (deployment setup also pays pairings, outside any trace).
        config = ScenarioConfig(
            seed=11,
            topology=TopologyConfig(area_side=600.0, router_grid=2,
                                    router_count=2, user_count=4,
                                    seed=11),
            tracing=True, telemetry_window=10.0)
        scenario = Scenario(config)
        with instrument.count_operations() as ops:
            scenario.run(40.0)
        scenario.publish_metrics()
        scenario.run_ops = ops.snapshot()
        return scenario

    def test_cli_scenario_helper_produces_traces(self):
        scenario = collect_scenario_metrics(routers=2, users=4, seed=11,
                                            duration=40.0)
        assert connected_traces(scenario.registry.snapshot())
        assert scenario.telemetry_jsonl().strip()

    def test_stitched_across_user_and_router_nodes(self, scenario):
        traces = connected_traces(scenario.registry.snapshot())
        assert traces, "no handshake completed in the seeded scenario"
        for trace in traces:
            names = {r["name"] for r in trace["spans"]}
            assert USER_SPANS <= names
            assert ROUTER_SPANS <= names
            # Every span genuinely belongs to the trace and links up.
            ids = {r["span_id"] for r in trace["spans"]}
            non_roots = [r for r in trace["spans"]
                         if r is not trace["root"]]
            assert all(r["parent_id"] in ids for r in non_roots)

    def test_per_stage_op_budget_matches_paper(self, scenario):
        for trace in connected_traces(scenario.registry.snapshot()):
            by_name = {r["name"]: dict(r["ops"])
                       for r in trace["spans"]}
            # Sign: 2 pairings; Eq.3 SPK check: 3 pairings (|URL|=0).
            assert by_name["groupsig.sign"]["pairing"] == 2
            assert by_name["groupsig.spk"]["pairing"] == 3
            assert trace["ops"]["pairing"] == 5

    def test_span_ops_sum_to_instrument_totals(self, scenario):
        """Every pairing the run performed is attributed to exactly
        one span of one trace (attribution is exclusive, nothing is
        double-counted or lost)."""
        snapshot = scenario.registry.snapshot()
        attributed = sum(
            dict(record["ops"]).get("pairing", 0)
            for record in snapshot["spans"]["records"])
        assert attributed == scenario.run_ops.get("pairing", 0) > 0

    def test_renders_waterfall_and_folded(self, scenario):
        traces = connected_traces(scenario.registry.snapshot())
        waterfall = render_waterfall(traces)
        assert "trace " in waterfall and "groupsig.spk" in waterfall
        folded = to_folded(traces)
        assert ("handshake;user.beacon_rx;user.process_beacon;"
                "groupsig.sign" in folded)
        assert ("handshake;router.service;router.handshake;"
                "router.verify;groupsig.verify;groupsig.spk" in folded)
        for line in folded.strip().splitlines():
            assert int(line.rsplit(" ", 1)[1]) >= 1

    def test_telemetry_rollup_covers_run(self, scenario):
        windows = read_jsonl(scenario.telemetry_jsonl())
        # 40s run / 10s window: one roll at t=0 (empty baseline
        # window), then one per elapsed window including t=40.
        assert len(windows) == 5
        assert [w["index"] for w in windows] == [0, 1, 2, 3, 4]
        assert all(windows[i]["t"] < windows[i + 1]["t"]
                   for i in range(len(windows) - 1))
        completed = sum(w["counters"].get(
            "user.handshakes_completed_total", 0) for w in windows)
        assert completed == scenario.registry.counter_value(
            "user.handshakes_completed_total") > 0

    def test_no_ambient_registry_leak(self, scenario):
        # Building and running a traced scenario must not leave its
        # registry installed in the caller's process.
        assert obs.active() is None


class TestRetransmissionStitching:
    def test_trace_survives_m2_retransmission(self):
        seed = 101
        config = ScenarioConfig(
            preset="TEST", seed=seed,
            topology=TopologyConfig(area_side=400.0, router_grid=1,
                                    user_count=3, seed=seed,
                                    access_range=400.0),
            group_sizes=(("Company X", 8),),
            beacon_interval=4.0,
            retry_policy=RetryPolicy(initial_timeout=2.0,
                                     backoff_factor=2.0,
                                     max_timeout=8.0, max_retries=4,
                                     jitter=0.1),
            tracing=True)
        scenario = Scenario(config)
        for user in scenario.sim_users.values():
            user.connect_timeout = 60.0
        injector = FaultInjector(FaultPlan(
            seed=seed,
            radio=[RadioFault(kind="drop", probability=1.0,
                              frame_kinds=("M.2",), stop=6.0)]))
        injector.arm_scenario(scenario)
        scenario.run(120.0)
        assert scenario.connected_fraction() == 1.0
        traces = connected_traces(scenario.registry.snapshot())
        retried = [t for t in traces
                   if any(r["name"] == "handshake.retransmit"
                          for r in t["spans"])]
        assert retried, "fault plan produced no retransmitting trace"
        for trace in retried:
            names = {r["name"] for r in trace["spans"]}
            # The retransmitted M.2 still stitched the router side in.
            assert ROUTER_SPANS <= names
            retx = [r for r in trace["spans"]
                    if r["name"] == "handshake.retransmit"]
            assert all(r["parent_id"] == trace["root"]["span_id"]
                       for r in retx)
            # Exactly one handshake's worth of crypto per trace: the
            # retransmit resends identical bytes, it does not re-sign,
            # and the router's duplicate cache verifies once.
            assert trace["ops"]["pairing"] == 5
