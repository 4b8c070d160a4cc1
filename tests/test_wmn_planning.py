"""Coverage analysis, placement planning, and redundancy checks."""

import pytest

from repro.errors import SimulationError
from repro.wmn.planning import (
    connectivity_after,
    coverage_fraction,
    dead_zones,
    plan_additional_routers,
)
from repro.wmn.topology import TopologyConfig, build_topology


class TestCoverage:
    def test_full_coverage(self):
        routers = [(500.0, 500.0)]
        assert coverage_fraction(routers, 1000.0, 1200.0) == 1.0

    def test_no_routers_no_coverage(self):
        assert coverage_fraction([], 1000.0, 300.0) == 0.0

    def test_partial_coverage(self):
        routers = [(0.0, 0.0)]
        fraction = coverage_fraction(routers, 1000.0, 400.0)
        assert 0.0 < fraction < 0.5

    def test_dead_zones_complement_coverage(self):
        routers = [(0.0, 0.0)]
        resolution = 20
        zones = dead_zones(routers, 1000.0, 400.0,
                           resolution=resolution)
        fraction = coverage_fraction(routers, 1000.0, 400.0,
                                     resolution=resolution)
        assert len(zones) == round((1 - fraction) * resolution ** 2)

    def test_bad_resolution_rejected(self):
        with pytest.raises(SimulationError):
            coverage_fraction([], 1000.0, 300.0, resolution=1)

    def test_default_topology_covers_city(self):
        topology = build_topology(TopologyConfig(seed=0))
        fraction = coverage_fraction(
            list(topology.router_positions.values()),
            topology.config.area_side, topology.config.access_range)
        assert fraction > 0.9


class TestPlanning:
    def test_greedy_improves_coverage(self):
        routers = [(0.0, 0.0)]
        before = coverage_fraction(routers, 1000.0, 300.0)
        additions = plan_additional_routers(routers, 1000.0, 300.0,
                                            count=3)
        after = coverage_fraction(routers + additions, 1000.0, 300.0)
        assert len(additions) == 3
        assert after > before

    def test_stops_at_full_coverage(self):
        routers = [(500.0, 500.0)]
        additions = plan_additional_routers(routers, 1000.0, 1200.0,
                                            count=5)
        assert additions == []

    def test_first_pick_maximizes_gain(self):
        """With an empty area the first pick covers the most points --
        somewhere central, not a corner."""
        additions = plan_additional_routers([], 1000.0, 400.0, count=1)
        x, y = additions[0]
        assert 200.0 <= x <= 800.0 and 200.0 <= y <= 800.0

    def test_deterministic(self):
        a = plan_additional_routers([(0.0, 0.0)], 800.0, 250.0, count=2)
        b = plan_additional_routers([(0.0, 0.0)], 800.0, 250.0, count=2)
        assert a == b


class TestRedundancy:
    def test_healthy_backbone(self):
        topology = build_topology(TopologyConfig(seed=0))
        health = connectivity_after(topology, [])
        assert health["connected"] == 1.0
        assert health["gateway_reachable_fraction"] == 1.0

    def test_single_failure_survivable(self):
        """The paper's redundancy assumption on the default city."""
        topology = build_topology(TopologyConfig(seed=0))
        victim = next(r for r in topology.router_positions
                      if r not in topology.gateway_ids)
        health = connectivity_after(topology, [victim])
        assert health["survivors"] == 15.0
        assert health["gateway_reachable_fraction"] == 1.0

    def test_total_failure(self):
        topology = build_topology(TopologyConfig(router_grid=2, seed=1))
        health = connectivity_after(
            topology, list(topology.router_positions))
        assert health["survivors"] == 0.0

    def test_losing_all_gateways_strands_routers(self):
        topology = build_topology(TopologyConfig(seed=0))
        health = connectivity_after(topology, topology.gateway_ids)
        assert health["gateway_reachable_fraction"] == 0.0

    # (config, failed ids, (survivors, connected,
    #  gateway_reachable_fraction)), as the networkx search this module
    # used to run gave them.  "all" fails every router, "gateways"
    # every gateway; ids outside the map are ignored.
    @pytest.mark.parametrize("config, failed, expected", [
        (TopologyConfig(router_grid=1, gateway_fraction=0.01, seed=1),
         [], (1.0, 1.0, 1.0)),
        (TopologyConfig(router_grid=1, gateway_fraction=0.01, seed=1),
         "all", (0.0, 0.0, 0.0)),
        (TopologyConfig(router_grid=1, gateway_fraction=0.01, seed=1),
         ["MR-7", "ghost"], (1.0, 1.0, 1.0)),
        (TopologyConfig(router_grid=4, backbone_range=500.0, seed=3),
         [], (16.0, 0.0, 0.4375)),
        (TopologyConfig(router_grid=4, backbone_range=500.0, seed=3),
         "gateways", (12.0, 0.0, 0.0)),
        (TopologyConfig(router_grid=4, backbone_range=500.0, seed=3),
         "all", (0.0, 0.0, 0.0)),
        (TopologyConfig(router_grid=4, backbone_range=500.0, seed=3),
         ["MR-99", "ghost"], (16.0, 0.0, 0.4375)),
        (TopologyConfig(router_grid=4, backbone_range=500.0, seed=3),
         ["MR-0", "MR-5", "MR-99"], (14.0, 0.0, 0.5)),
        (TopologyConfig(router_grid=4, backbone_range=520.0, seed=3),
         ["MR-1", "MR-99"], (15.0, 0.0, 0.8666666666666667)),
        (TopologyConfig(router_grid=4, backbone_range=520.0, seed=3),
         ["MR-5", "MR-6"], (14.0, 0.0, 0.5714285714285714)),
        (TopologyConfig(seed=0), "gateways", (12.0, 1.0, 0.0)),
        (TopologyConfig(seed=0), ["MR-0", "MR-5", "MR-99"],
         (14.0, 1.0, 1.0)),
        (TopologyConfig(area_side=2000.0, router_grid=3,
                        gateway_fraction=0.3, user_count=18,
                        access_range=500.0, seed=2026),
         ["MR-1", "MR-99"], (8.0, 1.0, 1.0)),
    ])
    def test_pinned_values(self, config, failed, expected):
        topology = build_topology(config)
        if failed == "all":
            failed = list(topology.router_positions)
        elif failed == "gateways":
            failed = list(topology.gateway_ids)
        health = connectivity_after(topology, failed)
        assert (health["survivors"], health["connected"],
                health["gateway_reachable_fraction"]) == expected
