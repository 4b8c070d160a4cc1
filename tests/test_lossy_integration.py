"""Failure injection: the WMN under packet loss.

The protocols must degrade gracefully on a lossy radio: handshakes
that lose a message time out and retry on a later beacon; sessions
reject nothing incorrectly; no node crashes.
"""

from repro.faults import FaultInjector, FaultPlan, RadioFault
from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.topology import TopologyConfig


def lossy_scenario(loss, seed=77, users=4):
    return Scenario(ScenarioConfig(
        preset="TEST", seed=seed,
        topology=TopologyConfig(area_side=400.0, router_grid=1,
                                user_count=users, seed=seed,
                                access_range=400.0),
        group_sizes=(("Company X", 8),),
        beacon_interval=4.0,
        data_interval=8.0,
        loss_probability=loss))


class TestLossResilience:
    def test_moderate_loss_still_connects(self):
        scenario = lossy_scenario(loss=0.15)
        for user in scenario.sim_users.values():
            user.connect_timeout = 12.0
        scenario.run(240.0)
        assert scenario.connected_fraction() == 1.0

    def test_heavy_loss_partial_progress_no_crash(self):
        scenario = lossy_scenario(loss=0.5)
        for user in scenario.sim_users.values():
            user.connect_timeout = 10.0
        scenario.run(300.0)
        # Loss drops frames but never alters them: whatever arrives
        # verifies, so nothing is rejected, and retries still connect
        # someone.
        metrics = scenario.user_metrics()
        assert metrics["connect_attempts"] >= metrics["connected"]
        assert metrics["connected"] >= 1
        for sim_router in scenario.sim_routers.values():
            stats = sim_router.router.engine.stats
            assert stats["rejected_signature"] == 0
            assert stats["rejected_revoked"] == 0
        assert scenario.router_metrics()["data_rejected"] == 0

    def test_lost_confirm_triggers_timeout_and_retry(self):
        scenario = lossy_scenario(loss=0.35, seed=78, users=2)
        for user in scenario.sim_users.values():
            user.connect_timeout = 10.0
        # Every (M.3) of the first 30 s is lost, so the first handshakes
        # must time out; later ones get through.
        FaultInjector(FaultPlan(seed=78, radio=[RadioFault(
            "drop", probability=1.0, frame_kinds=("M.3",), stop=30.0)])
        ).arm_scenario(scenario)
        scenario.run(300.0)
        metrics = scenario.user_metrics()
        assert metrics["connect_timeouts"] >= 1
        # Every timeout was followed by a fresh attempt.
        assert metrics["connect_attempts"] > metrics["connect_timeouts"]
        assert scenario.connected_fraction() == 1.0

    def test_data_loss_does_not_poison_sessions(self):
        """Lost DAT frames must not desynchronize the MAC layer: later
        packets still verify (sequence numbers only need monotonicity)."""
        scenario = lossy_scenario(loss=0.3, seed=79, users=3)
        scenario.run(400.0)
        metrics = scenario.router_metrics()
        assert metrics["data_delivered"] > 0
        assert metrics["data_rejected"] == 0

    def test_zero_loss_baseline(self):
        scenario = lossy_scenario(loss=0.0)
        scenario.run(60.0)
        assert scenario.connected_fraction() == 1.0
        assert scenario.radio.frames_dropped == 0
