"""Integration tests for simulator nodes over scenarios."""

import math

import pytest

from repro.wmn.scenario import Scenario, ScenarioConfig
from repro.wmn.topology import TopologyConfig


def small_scenario(**overrides):
    defaults = dict(
        preset="TEST", seed=3,
        topology=TopologyConfig(area_side=600.0, router_grid=1,
                                user_count=4, seed=3,
                                access_range=600.0),
        group_sizes=(("Company X", 8),),
        beacon_interval=5.0)
    defaults.update(overrides)
    return Scenario(ScenarioConfig(**defaults))


class TestScenarioConnectivity:
    def test_all_users_connect(self):
        scenario = small_scenario()
        scenario.run(40.0)
        assert scenario.connected_fraction() == 1.0

    def test_handshake_stats_populated(self):
        scenario = small_scenario()
        scenario.run(40.0)
        stats = scenario.handshake_stats()
        assert stats.count == 4
        assert stats.summary()["mean"] > 0

    def test_auth_delay_includes_crypto_costs(self):
        """The cost model's sign+check time lower-bounds auth delay."""
        scenario = small_scenario()
        scenario.run(40.0)
        cost = scenario.config.cost_model
        floor = cost.group_sign() + cost.beacon_check()
        for delay in scenario.handshake_stats().samples:
            assert delay >= floor * 0.99

    def test_router_metrics_consistent(self):
        scenario = small_scenario()
        scenario.run(40.0)
        metrics = scenario.router_metrics()
        assert metrics["handshakes_completed"] == 4
        assert metrics["handshakes_rejected"] == 0
        assert metrics["beacons_sent"] >= 7

    def test_data_traffic_flows(self):
        scenario = small_scenario(data_interval=5.0)
        scenario.run(60.0)
        metrics = scenario.router_metrics()
        assert metrics["data_delivered"] > 0
        assert metrics["data_rejected"] == 0
        assert (metrics["data_delivered"]
                == scenario.user_metrics()["data_sent"])


class TestUplinkTimer:
    def test_uplink_rate_flat_across_reassociations(self):
        """One uplink series per user for its lifetime: re-associating
        must not stack another data timer on the old ones.  A single
        10 s series (+-5% jitter) fires at most 7 times a minute."""
        scenario = small_scenario(
            topology=TopologyConfig(area_side=600.0, router_grid=1,
                                    user_count=3, seed=3,
                                    access_range=600.0),
            data_interval=10.0, reconnect_interval=60.0)
        users = list(scenario.sim_users.values())
        sent = {user.node_id: 0 for user in users}
        for _minute in range(8):
            scenario.run(60.0)
            for user in users:
                total = user.metrics["data_sent"]
                assert total - sent[user.node_id] <= 7
                sent[user.node_id] = total
        assert min(sent.values()) > 0
        assert min(user.metrics["connected"] for user in users) >= 6


class TestTimeoutAndReconnect:
    def test_connect_timeout_returns_to_idle(self):
        """If M.3 never arrives the user gives up and retries."""
        scenario = small_scenario()
        # Sabotage: the router drops every request (queue_limit 0).
        router = next(iter(scenario.sim_routers.values()))
        router.queue_limit = 0
        for user in scenario.sim_users.values():
            user.connect_timeout = 10.0
        scenario.run(60.0)
        assert scenario.connected_fraction() == 0.0
        user_metrics = scenario.user_metrics()
        assert user_metrics["connect_timeouts"] >= 4
        assert user_metrics["connect_attempts"] > 4   # retried

    def test_periodic_reconnect(self):
        scenario = small_scenario()
        scenario.run(30.0)
        user = next(iter(scenario.sim_users.values()))
        assert user.state == "connected"
        user.disconnect()
        assert user.state == "idle"
        scenario.run(30.0)
        assert user.state == "connected"   # reconnected on next beacon


class TestQueueBehaviour:
    def test_queue_drops_counted(self):
        scenario = small_scenario()
        router = next(iter(scenario.sim_routers.values()))
        router.queue_limit = 1
        # Flood the queue faster than the CPU drains it.
        from repro.wmn.radio import Frame
        for user in scenario.sim_users.values():
            user.auto_connect = False
        for i in range(10):
            router.deliver(Frame("M.2", b"junk", src=f"x{i}",
                                 dst=router.node_id))
        assert router.metrics["requests_dropped_queue"] >= 8

    def test_malformed_request_cheaply_rejected(self):
        scenario = small_scenario()
        router = next(iter(scenario.sim_routers.values()))
        from repro.wmn.radio import Frame
        router.deliver(Frame("M.2", b"garbage-bytes", src="x",
                             dst=router.node_id))
        scenario.run(1.0)
        assert router.metrics["handshakes_rejected"] == 1


class TestOutOfRange:
    def test_far_user_never_connects_without_boost(self):
        scenario = small_scenario(
            topology=TopologyConfig(area_side=600.0, router_grid=1,
                                    user_count=2, seed=3,
                                    access_range=50.0))
        # Place one user far beyond even boosted range.
        far_user = list(scenario.sim_users.values())[0]
        far_user.position = (10_000.0, 10_000.0)
        far_user.boost_range = 10.0
        scenario.run(30.0)
        assert far_user.state != "connected"
